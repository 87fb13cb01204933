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
		Name:           "fig12",
		Desc:           "bursty incast aggressor impact over burst size x gap heatmaps",
		DefaultOptions: Options{Nodes: 32, MinIters: 6, MaxIters: 16},
		MinNodes:       MinCellNodes,
		Run: func(opt Options) (*results.Result, error) {
			return fig12(opt, Fig12MsgSizes[:], Fig12BurstSizes[:], Fig12GapsUS[:]), nil
		},
	})
}

// Paper grids (log scale 1 .. 1e6). The two largest burst sizes behave
// identically to persistent congestion, so reduced-scale runs use a
// truncated axis by default.
var (
	Fig12MsgSizes   = [...]int64{16 * 1024, 128 * 1024, 1 << 20}
	Fig12BurstSizes = [...]int{1, 100, 10000, 1000000}
	Fig12GapsUS     = [...]int64{1, 100, 10000, 1000000}
)

// fig12 reproduces Fig. 12: one heatmap per aggressor message size, over
// burst size x burst gap, of the congestion impact a bursty incast
// aggressor has on a 128 B MPI_Alltoall victim, on Malbec with an
// interleaved 50/50 split (the paper's worst impacts: ~1.1 at 16 KiB,
// ~1.21 at 128 KiB, 1.00 at 1 MiB). With opt.MaxIters small this is the
// heaviest experiment after Fig. 9; tests run a 2x2x2 sub-grid. Cells
// get their seeds assigned in grid order up front and run in parallel
// across opt.Jobs.
func fig12(opt Options, msgSizes []int64, bursts []int, gapsUS []int64) *results.Result {
	sys := Malbec(opt.Nodes * 2)
	sys.Domains = opt.Domains
	sys.Fidelity = opt.fidelity()
	victim := BenchVictim(workloads.AlltoallBench(128))
	type cellSpec struct {
		msg   int64
		burst int
		gap   int64
		seed  uint64
	}
	var specs []cellSpec
	seed := opt.Seed
	for _, msg := range msgSizes {
		for _, burst := range bursts {
			for _, gap := range gapsUS {
				seed++
				specs = append(specs, cellSpec{msg, burst, gap, seed})
			}
		}
	}
	impacts := parallelMap(opt.gridJobs(), specs, func(c cellSpec) float64 {
		net := sys.build(c.seed)
		rng := sim.NewRNG(c.seed ^ 0xbeef)
		vNodes, aNodes := placement.Split(opt.Nodes, opt.Nodes/2,
			placement.Interleaved, nil)
		vjob := mpi.NewJob(net, vNodes, mpi.JobOpts{Stack: mpi.MPI, Tag: 1})
		iso := stats.NewSample(opt.MaxIters)
		measureVictim(iso, vjob, victim, rng.Split(), opt.MinIters, opt.MaxIters)

		ajob := mpi.NewJob(net, aNodes, mpi.JobOpts{Stack: mpi.MPI, Tag: 2, Bulk: true})
		agg := workloads.StartBurstyIncast(ajob, c.msg, c.burst,
			sim.Time(c.gap)*sim.Microsecond)
		net.RunFor(200 * sim.Microsecond)
		cong := stats.NewSample(opt.MaxIters)
		measureVictim(cong, vjob, victim, rng.Split(), opt.MinIters, opt.MaxIters)
		agg.Stop()

		return stats.CongestionImpact(iso.Mean(), cong.Mean())
	})
	res := &results.Result{}
	t := res.AddTable("bursty", "aggr_msg", "burst_size", "gap_us", "impact")
	for i, c := range specs {
		t.Row(
			results.String(workloads.SizeLabel(c.msg)), results.Int(int64(c.burst)),
			results.Int(c.gap), results.Float(impacts[i], 2),
		)
	}
	return res
}
