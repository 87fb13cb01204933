package harness

import (
	"repro/internal/mpi"
	"repro/internal/placement"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

var fig12Defaults = Options{Nodes: 32, MinIters: 6, MaxIters: 16}

func init() {
	Register(Experiment{
		Name:           "fig12",
		Desc:           "bursty incast aggressor impact over burst size x gap heatmaps",
		DefaultOptions: fig12Defaults,
		Run: func(opt Options) (*results.Result, error) {
			return Fig12Bursty(opt, nil, nil, nil).Result(), nil
		},
	})
}

// Fig12Cell is one element of a Fig. 12 heatmap: the congestion impact of a
// bursty incast aggressor on a 128 B MPI_Alltoall victim.
type Fig12Cell struct {
	MsgBytes  int64
	BurstSize int
	GapUS     int64 // gap between bursts, microseconds
	Impact    float64
}

// Fig12Result reproduces Fig. 12: one heatmap per aggressor message size,
// over burst size x burst gap, on Malbec with an interleaved 50/50 split.
type Fig12Result struct {
	Cells []Fig12Cell
}

// Paper grids (log scale 1 .. 1e6). The two largest burst sizes behave
// identically to persistent congestion, so reduced-scale runs use a
// truncated axis by default.
var (
	Fig12MsgSizes   = [...]int64{16 * 1024, 128 * 1024, 1 << 20}
	Fig12BurstSizes = [...]int{1, 100, 10000, 1000000}
	Fig12GapsUS     = [...]int64{1, 100, 10000, 1000000}
)

// Fig12Bursty runs the grid. With opt.MaxIters small this is the heaviest
// experiment after Fig. 9; tests use 2x2 sub-grids. Cells get their seeds
// assigned in grid order up front and run in parallel across opt.Jobs.
func Fig12Bursty(opt Options, msgSizes []int64, bursts []int, gapsUS []int64) Fig12Result {
	opt = opt.withDefaults(fig12Defaults)
	if msgSizes == nil {
		msgSizes = Fig12MsgSizes[:]
	}
	if bursts == nil {
		bursts = Fig12BurstSizes[:]
	}
	if gapsUS == nil {
		gapsUS = Fig12GapsUS[:]
	}
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
	cells := parallelMap(opt.gridJobs(), specs, func(c cellSpec) Fig12Cell {
		net := sys.build(c.seed)
		rng := sim.NewRNG(c.seed ^ 0xbeef)
		vNodes, aNodes := placement.Split(opt.Nodes, opt.Nodes/2,
			placement.Interleaved, nil)
		vjob := mpi.NewJob(net, vNodes, mpi.JobOpts{Stack: mpi.MPI, Tag: 1})
		iso := stats.NewSample(opt.MaxIters)
		measureVictim(iso, vjob, victim, rng.Split(), opt.MinIters, opt.MaxIters)

		ajob := mpi.NewJob(net, aNodes, mpi.JobOpts{Stack: mpi.MPI, Tag: 2})
		agg := workloads.StartBurstyIncast(ajob, c.msg, c.burst,
			sim.Time(c.gap)*sim.Microsecond)
		net.RunFor(200 * sim.Microsecond)
		cong := stats.NewSample(opt.MaxIters)
		measureVictim(cong, vjob, victim, rng.Split(), opt.MinIters, opt.MaxIters)
		agg.Stop()

		return Fig12Cell{
			MsgBytes: c.msg, BurstSize: c.burst, GapUS: c.gap,
			Impact: stats.CongestionImpact(iso.Mean(), cong.Mean()),
		}
	})
	return Fig12Result{Cells: cells}
}

// MaxImpact returns the worst impact per aggressor message size (the paper
// reports ~1.1 at 16 KiB, ~1.21 at 128 KiB, 1.00 at 1 MiB).
func (r Fig12Result) MaxImpact() map[int64]float64 {
	out := map[int64]float64{}
	for _, c := range r.Cells {
		if c.Impact > out[c.MsgBytes] {
			out[c.MsgBytes] = c.Impact
		}
	}
	return out
}

// Result converts the grid to the uniform structured form.
func (r Fig12Result) Result() *results.Result {
	res := &results.Result{}
	t := res.AddTable("bursty", "aggr_msg", "burst_size", "gap_us", "impact")
	for _, c := range r.Cells {
		t.Row(
			results.String(sizeName(c.MsgBytes)), results.Int(int64(c.BurstSize)),
			results.Int(c.GapUS), results.Float(c.Impact, 2),
		)
	}
	return res
}
