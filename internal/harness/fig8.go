package harness

import (
	"repro/internal/mpi"
	"repro/internal/placement"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func init() {
	Register(Experiment{
		Name:           "fig8",
		Desc:           "Tailbench latency distributions with and without incast congestion",
		DefaultOptions: Options{Nodes: 64, MinIters: 20, MaxIters: 60},
		MinNodes:       MinCellNodes,
		Run:            fig8,
	})
}

// fig8 reproduces Fig. 8: Tailbench request-time distributions
// (microseconds) with and without an incast aggressor (linear allocation,
// ~10%/90% victim split), on Aries and Slingshot, annotated with the
// 95th/99th percentiles. Tailbench service times run at the grid's
// documented 1/100 scale. The default scale is 64 nodes so the ~10%
// victim allocation spans more than one switch — the client/server path
// must cross fabric the congestion tree reaches, as it does at the
// paper's 512-node scale. Each (system, app) pair builds its own network,
// so pairs run in parallel across opt.Jobs workers.
func fig8(opt Options) (*results.Result, error) {
	type pair struct {
		sys System
		app workloads.App
	}
	var pairs []pair
	for _, sys := range gridSystems(opt.Nodes) {
		sys.Domains = opt.Domains
		sys.Fidelity = opt.fidelity()
		for _, app := range workloads.DCAppsScaled(dcServiceScale) {
			pairs = append(pairs, pair{sys, app})
		}
	}
	rows := parallelMap(opt.gridJobs(), pairs, func(p pair) []results.Value {
		net := p.sys.build(opt.Seed)
		rng := sim.NewRNG(opt.Seed + 99)
		nv := max(2, opt.Nodes/10)
		victimNodes, aggrNodes := placement.Split(opt.Nodes, nv, placement.Linear, nil)
		vjob := mpi.NewJob(net, victimNodes, mpi.JobOpts{Stack: mpi.MPI, Tag: 1})

		iso := sampleApp(vjob, p.app, rng, opt.MaxIters)

		ajob := mpi.NewJob(net, aggrNodes, mpi.JobOpts{Stack: mpi.MPI, Tag: 2, Bulk: true})
		agg := workloads.StartIncast(ajob, workloads.AggressorMsgBytes, 2)
		net.RunFor(aggressorWarmup)
		cong := sampleApp(vjob, p.app, rng, opt.MaxIters)
		agg.Stop()

		return []results.Value{
			results.String(p.app.Name), results.String(p.sys.Name),
			results.Float(iso.Median(), 1), results.Float(iso.Percentile(95), 1),
			results.Float(iso.Percentile(99), 1),
			results.Float(cong.Median(), 1), results.Float(cong.Percentile(95), 1),
			results.Float(cong.Percentile(99), 1),
			results.Float(cong.Mean()/iso.Mean(), 2),
		}
	})
	res := &results.Result{}
	t := res.AddTable("tail", "app", "system",
		"iso_p50_us", "iso_p95", "iso_p99",
		"cong_p50_us", "cong_p95", "cong_p99", "impact")
	for _, row := range rows {
		t.Row(row...)
	}
	return res, nil
}

func sampleApp(j *mpi.Job, app workloads.App, rng *sim.RNG, iters int) *stats.Sample {
	s := stats.NewSample(iters)
	net := j.Net
	for i := 0; i < iters; i++ {
		start := net.Now()
		fin := false
		app.Iterate(j, rng, func() { fin = true })
		net.RunWhile(func() bool { return !fin })
		if !fin {
			break
		}
		s.Add((net.Now() - start).Microseconds())
	}
	return s
}
