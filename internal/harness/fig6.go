package harness

import (
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workloads"
)

func init() {
	Register(Experiment{
		Name:           "fig6",
		Desc:           "bisection and MPI_Alltoall aggregate bandwidth vs theoretical peak",
		DefaultOptions: Options{Nodes: 64},
		Run:            fig6,
	})
}

// Fig6Sizes are the paper's x-axis sizes (8 B ... 128 KiB).
var Fig6Sizes = [...]int64{8, 32, 128, 512, 2048, 8192, 32 * 1024, 128 * 1024}

// fig6 reproduces Fig. 6: bisection and MPI_Alltoall aggregate bandwidth
// (Tb/s) versus message size, against the theoretical peaks derived from
// the topology (§II-G). PPN follows opt.PPN for the alltoall series (the
// paper shows 16 and 24; reduced-scale runs use smaller values since
// ranks multiply event counts). Every (series, size) point builds its own
// network, so points run in parallel across opt.Jobs.
func fig6(opt Options) (*results.Result, error) {
	sys := Shandy(opt.Nodes)
	sys.Domains = opt.Domains
	sys.Fidelity = opt.fidelity()
	topo := topology.MustNew(sys.Topo)
	bisectionPeak := float64(topo.BisectionPeakBits(topology.LinkBits)) / 1e12
	alltoallPeak := float64(topo.AlltoallPeakBits(topology.LinkBits)) / 1e12
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
	rows := parallelMap(opt.gridJobs(), points, func(p point) []results.Value {
		ppn, tb, peak := 1, 0.0, bisectionPeak
		if p.series == "bisection" {
			tb = measureBisection(sys, opt.Seed, n, p.size)
		} else {
			ppn, peak = opt.PPN, alltoallPeak
			tb = measureAlltoall(sys, opt.Seed, n, opt.PPN, p.size)
		}
		return []results.Value{
			results.String(p.series), results.String(workloads.SizeLabel(p.size)),
			results.Int(int64(ppn)), results.Float(tb, 3),
			results.Float(tb/peak, 2),
		}
	})
	res := &results.Result{}
	res.AddTable("peaks", "metric", "Tbps").
		Row(results.String("theoretical bisection"), results.Float(bisectionPeak, 2)).
		Row(results.String("theoretical alltoall"), results.Float(alltoallPeak, 2))
	t := res.AddTable("points", "series", "size", "PPN", "Tbps", "peak_frac")
	for _, row := range rows {
		t.Row(row...)
	}
	return res, nil
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
