package harness

import (
	"repro/internal/mpi"
	"repro/internal/placement"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

var fig8Defaults = Options{Nodes: 64, MinIters: 20, MaxIters: 60}

func init() {
	Register(Experiment{
		Name:           "fig8",
		Desc:           "Tailbench latency distributions with and without incast congestion",
		DefaultOptions: fig8Defaults,
		Run: func(opt Options) (*results.Result, error) {
			return Fig8Tailbench(opt).Result(), nil
		},
	})
}

// Fig8Entry is one (application, system) pair of Fig. 8: the request-time
// distribution with and without endpoint congestion.
type Fig8Entry struct {
	App       string
	System    string
	Isolated  *stats.Sample // request times, microseconds
	Congested *stats.Sample
}

// Fig8Result reproduces Fig. 8: Tailbench latency distributions with and
// without an incast aggressor (linear allocation, ~10%/90% victim split),
// on Aries and Slingshot, annotated with the 95th/99th percentiles.
type Fig8Result struct {
	Entries []Fig8Entry
}

// Fig8Tailbench runs the experiment. Tailbench service times run at the
// grid's documented 1/100 scale. The default scale is 64 nodes so the ~10%
// victim allocation spans more than one switch — the client/server path
// must cross fabric the congestion tree reaches, as it does at the paper's
// 512-node scale. Each (system, app) pair builds its own network, so
// pairs run in parallel across opt.Jobs workers.
func Fig8Tailbench(opt Options) Fig8Result {
	opt = opt.withDefaults(fig8Defaults)
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
	entries := parallelMap(opt.gridJobs(), pairs, func(p pair) Fig8Entry {
		net := p.sys.build(opt.Seed)
		rng := sim.NewRNG(opt.Seed + 99)
		nv := max(2, opt.Nodes/10)
		victimNodes, aggrNodes := placement.Split(opt.Nodes, nv, placement.Linear, nil)
		vjob := mpi.NewJob(net, victimNodes, mpi.JobOpts{Stack: mpi.MPI, Tag: 1})

		iso := sampleApp(vjob, p.app, rng, opt.MaxIters)

		ajob := mpi.NewJob(net, aggrNodes, mpi.JobOpts{Stack: mpi.MPI, Tag: 2})
		agg := workloads.StartIncast(ajob, workloads.AggressorMsgBytes, 2)
		net.RunFor(300 * sim.Microsecond)
		cong := sampleApp(vjob, p.app, rng, opt.MaxIters)
		agg.Stop()

		return Fig8Entry{
			App: p.app.Name, System: p.sys.Name, Isolated: iso, Congested: cong,
		}
	})
	return Fig8Result{Entries: entries}
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

// Result converts the measurement to the uniform structured form.
func (r Fig8Result) Result() *results.Result {
	res := &results.Result{}
	t := res.AddTable("tail", "app", "system",
		"iso_p50_us", "iso_p95", "iso_p99",
		"cong_p50_us", "cong_p95", "cong_p99", "impact")
	for _, e := range r.Entries {
		t.Row(
			results.String(e.App), results.String(e.System),
			results.Float(e.Isolated.Median(), 1), results.Float(e.Isolated.Percentile(95), 1),
			results.Float(e.Isolated.Percentile(99), 1),
			results.Float(e.Congested.Median(), 1), results.Float(e.Congested.Percentile(95), 1),
			results.Float(e.Congested.Percentile(99), 1),
			results.Float(e.Congested.Mean()/e.Isolated.Mean(), 2),
		)
	}
	return res
}
