package harness

import (
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/topology"
)

var fig6Defaults = Options{Nodes: 64}

func init() {
	Register(Experiment{
		Name:           "fig6",
		Desc:           "bisection and MPI_Alltoall aggregate bandwidth vs theoretical peak",
		DefaultOptions: fig6Defaults,
		Run: func(opt Options) (*results.Result, error) {
			return Fig6Bisection(opt).Result(), nil
		},
	})
}

// Fig6Point is one measured series point of Fig. 6.
type Fig6Point struct {
	Series  string
	Size    int64
	PPN     int
	TBits   float64 // aggregate bandwidth, Tb/s
	PeakFrc float64 // fraction of the theoretical peak
}

// Fig6Result reproduces Fig. 6: bisection and MPI_Alltoall aggregate
// bandwidth versus message size, against the theoretical peaks derived
// from the topology (§II-G).
type Fig6Result struct {
	BisectionPeakTBits float64
	AlltoallPeakTBits  float64
	Points             []Fig6Point
}

// Fig6Sizes are the paper's x-axis sizes (8 B ... 128 KiB).
var Fig6Sizes = [...]int64{8, 32, 128, 512, 2048, 8192, 32 * 1024, 128 * 1024}

// Fig6Bisection measures both series. PPN follows opt.PPN for the alltoall
// series (the paper shows 16 and 24; reduced-scale runs use smaller
// values since ranks multiply event counts). Every (series, size) point
// builds its own network, so points run in parallel across opt.Jobs.
func Fig6Bisection(opt Options) Fig6Result {
	opt = opt.withDefaults(fig6Defaults)
	sys := Shandy(opt.Nodes)
	sys.Domains = opt.Domains
	sys.Fidelity = opt.fidelity()
	topo := topology.MustNew(sys.Topo)
	res := Fig6Result{
		BisectionPeakTBits: float64(topo.BisectionPeakBits(topology.LinkBits)) / 1e12,
		AlltoallPeakTBits:  float64(topo.AlltoallPeakBits(topology.LinkBits)) / 1e12,
	}
	n := topo.Nodes()
	type point struct {
		series string
		size   int64
	}
	var points []point
	for _, size := range Fig6Sizes {
		points = append(points, point{"bisection", size})
	}
	for _, size := range Fig6Sizes {
		points = append(points, point{"alltoall", size})
	}
	res.Points = parallelMap(opt.gridJobs(), points, func(p point) Fig6Point {
		if p.series == "bisection" {
			tb := measureBisection(sys, opt.Seed, n, p.size)
			return Fig6Point{
				Series: "bisection", Size: p.size, PPN: 1, TBits: tb,
				PeakFrc: tb / res.BisectionPeakTBits,
			}
		}
		tb := measureAlltoall(sys, opt.Seed, n, opt.PPN, p.size)
		return Fig6Point{
			Series: "alltoall", Size: p.size, PPN: opt.PPN, TBits: tb,
			PeakFrc: tb / res.AlltoallPeakTBits,
		}
	})
	return res
}

// measureBisection pairs every node with its opposite across the group
// bisection and streams messages both ways, reporting steady-state
// aggregate bandwidth.
func measureBisection(sys System, seed uint64, n int, size int64) float64 {
	net := sys.build(seed)
	const window = 8
	running := true
	for i := 0; i < n; i++ {
		partner := topology.NodeID((i + n/2) % n)
		src := topology.NodeID(i)
		var post func()
		post = func() {
			if !running {
				return
			}
			net.Send(src, partner, size, fabric.SendOpts{NoRendezvous: size <= 4096,
				OnDelivered: func(sim.Time) { post() }})
		}
		for w := 0; w < window; w++ {
			post()
		}
	}
	// Warm up, then measure over a fixed window.
	warm := 100 * sim.Microsecond
	meas := 300 * sim.Microsecond
	net.RunFor(warm)
	startBytes := net.BytesDelivered
	net.RunFor(meas)
	running = false
	return float64(net.BytesDelivered-startBytes) * 8 / meas.Seconds() / 1e12
}

// measureAlltoall runs back-to-back MPI_Alltoalls over all nodes (with
// PPN ranks per node) and reports aggregate delivered bandwidth.
func measureAlltoall(sys System, seed uint64, n, ppn int, size int64) float64 {
	net := sys.build(seed)
	job := mpi.NewJob(net, nodeRange(n), mpi.JobOpts{PPN: ppn, Stack: mpi.MPI})
	running := true
	var round func()
	round = func() {
		if !running {
			return
		}
		job.Alltoall(size, func(sim.Time) { round() })
	}
	round()
	warm := 100 * sim.Microsecond
	meas := 400 * sim.Microsecond
	net.RunFor(warm)
	startBytes := net.BytesDelivered
	net.RunFor(meas)
	running = false
	return float64(net.BytesDelivered-startBytes) * 8 / meas.Seconds() / 1e12
}

// Result converts the measurement to the uniform structured form.
func (r Fig6Result) Result() *results.Result {
	res := &results.Result{}
	res.AddTable("peaks", "metric", "Tbps").
		Row(results.String("theoretical bisection"), results.Float(r.BisectionPeakTBits, 2)).
		Row(results.String("theoretical alltoall"), results.Float(r.AlltoallPeakTBits, 2))
	t := res.AddTable("points", "series", "size", "PPN", "Tbps", "peak_frac")
	for _, p := range r.Points {
		t.Row(
			results.String(p.Series), results.String(sizeName(p.Size)),
			results.Int(int64(p.PPN)), results.Float(p.TBits, 3),
			results.Float(p.PeakFrc, 2),
		)
	}
	return res
}
