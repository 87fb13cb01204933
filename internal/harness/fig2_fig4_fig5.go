package harness

import (
	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workloads"
)

func init() {
	Register(Experiment{
		Name:           "fig2",
		Desc:           "switch traversal latency distribution (2-hop minus 1-hop RoCE)",
		DefaultOptions: Options{Nodes: 64, MinIters: 200, MaxIters: 2000},
		Run:            fig2,
	})
	Register(Experiment{
		Name:           "fig4",
		Desc:           "latency and bandwidth vs node distance and message size",
		DefaultOptions: Options{Nodes: 64, MinIters: 20, MaxIters: 60},
		Run:            fig4,
	})
	Register(Experiment{
		Name:           "fig5",
		Desc:           "RTT/2 across software stacks and message sizes",
		DefaultOptions: Options{Nodes: 64, MinIters: 3, MaxIters: 10},
		Run:            fig5,
	})
}

// fig2 reproduces Fig. 2, the switch-latency distribution for RoCE
// traffic. It measures the Rosetta traversal latency exactly as the paper
// does: the difference between 2-hop (two switches, same group) and 1-hop
// (same switch) path latencies for 8 B messages on a quiet system.
func fig2(opt Options) (*results.Result, error) {
	sys := Shandy(opt.Nodes)
	sys.Domains = opt.Domains
	sys.Fidelity = opt.fidelity()
	net := sys.build(opt.Seed)
	nps := sys.Topo.NodesPerSwitch

	oneWay := func(src, dst topology.NodeID) sim.Time {
		start := net.Now()
		var done sim.Time
		net.Send(src, dst, 8, fabric.SendOpts{OnDelivered: func(at sim.Time) { done = at }})
		net.RunWhile(func() bool { return done == 0 })
		return done - start
	}

	// 1-hop baseline: nodes sharing a switch.
	base := stats.NewSample(opt.MaxIters)
	for i := 0; i < opt.MaxIters; i++ {
		base.Add(oneWay(0, 1).Nanoseconds())
	}
	med := base.Median()

	// 2-hop samples (nanoseconds): nodes on two switches of the same group.
	s := stats.NewSample(opt.MaxIters)
	for i := 0; i < opt.MaxIters; i++ {
		l := oneWay(0, topology.NodeID(nps)).Nanoseconds()
		s.Add(l - med)
	}
	res := &results.Result{}
	res.AddTable("distribution", "metric", "value_ns").
		Row(results.String("mean"), results.Float(s.Mean(), 1)).
		Row(results.String("median"), results.Float(s.Median(), 1)).
		Row(results.String("p1"), results.Float(s.Percentile(1), 1)).
		Row(results.String("p99"), results.Float(s.Percentile(99), 1)).
		Row(results.String("min"), results.Float(s.Min(), 1)).
		Row(results.String("max"), results.Float(s.Max(), 1))
	return res, nil
}

// Fig4Sizes are the paper's four message sizes.
var Fig4Sizes = [...]int64{8, 1024, 128 * 1024, 4 * 1024 * 1024}

// fig4 reproduces Fig. 4: latency boxplots (microseconds) and streaming
// bandwidth for node distances (same switch / different switches /
// different groups) across message sizes, on an isolated system. Every
// (distance, size) point builds a fresh network, so points run in
// parallel across opt.Jobs workers.
func fig4(opt Options) (*results.Result, error) {
	sys := Shandy(opt.Nodes)
	sys.Domains = opt.Domains
	sys.Fidelity = opt.fidelity()
	nps := sys.Topo.NodesPerSwitch
	npg := nps * sys.Topo.SwitchesPerGroup
	dists := []struct {
		name string
		dst  int
	}{
		{"same switch", 1},
		{"different switches", nps},
		{"different groups", npg},
	}
	type point struct {
		name string
		dst  int
		size int64
	}
	var points []point
	for _, d := range dists {
		for _, size := range Fig4Sizes {
			points = append(points, point{d.name, d.dst, size})
		}
	}
	rows := parallelMap(opt.gridJobs(), points, func(p point) []results.Value {
		// Fresh network per point keeps points independent.
		net := sys.build(opt.Seed)
		lat := stats.NewSample(opt.MaxIters)
		for i := 0; i < opt.MaxIters; i++ {
			start := net.Now()
			var done sim.Time
			net.Send(0, topology.NodeID(p.dst), p.size,
				fabric.SendOpts{OnDelivered: func(at sim.Time) { done = at }})
			net.RunWhile(func() bool { return done == 0 })
			lat.Add((done - start).Microseconds())
		}
		box := lat.Box()
		gbits := streamBandwidth(sys, opt.Seed, topology.NodeID(p.dst), p.size)
		return []results.Value{
			results.String(p.name), results.String(workloads.SizeLabel(p.size)),
			results.Float(box.S, 2), results.Float(box.Q1, 2),
			results.Float(box.Median, 2), results.Float(box.Q3, 2),
			results.Float(box.L, 2), results.Float(gbits, 2),
		}
	})
	res := &results.Result{}
	t := res.AddTable("grid", "distance", "size", "S_us", "Q1", "median", "Q3", "L", "Gbps")
	for _, row := range rows {
		t.Row(row...)
	}
	return res, nil
}

// streamBandwidth measures pipelined point-to-point bandwidth with a
// window of outstanding messages, as a bandwidth benchmark does.
func streamBandwidth(sys System, seed uint64, dst topology.NodeID, size int64) float64 {
	net := sys.build(seed + 1)
	const window = 8
	iters := 64
	if size >= 1<<20 {
		iters = 12
	}
	done, posted := 0, 0
	var finish sim.Time
	var post func()
	post = func() {
		if posted >= iters {
			return
		}
		posted++
		net.Send(0, dst, size, fabric.SendOpts{OnDelivered: func(at sim.Time) {
			done++
			finish = at
			post()
		}})
	}
	for i := 0; i < window && i < iters; i++ {
		post()
	}
	net.RunWhile(func() bool { return done < iters })
	if finish == 0 {
		return 0
	}
	return float64(size*int64(iters)) * 8 / finish.Seconds() / 1e9
}

// Fig5Sizes spans 8 B to 16 MiB in decade-ish steps like the paper's
// log-scale x axis.
var Fig5Sizes = [...]int64{8, 64, 512, 1024, 4096, 32 * 1024, 256 * 1024, 2 << 20, 16 << 20}

// fig5 reproduces Fig. 5: the median RTT/2 across software stacks and
// message sizes between two nodes in different groups. Points build
// independent networks and run in parallel.
func fig5(opt Options) (*results.Result, error) {
	sys := Shandy(opt.Nodes)
	sys.Domains = opt.Domains
	sys.Fidelity = opt.fidelity()
	npg := sys.Topo.NodesPerSwitch * sys.Topo.SwitchesPerGroup
	type point struct {
		stack mpi.Stack
		size  int64
	}
	var points []point
	for _, st := range mpi.Stacks() {
		for _, size := range Fig5Sizes {
			points = append(points, point{st, size})
		}
	}
	rtt2 := parallelMap(opt.gridJobs(), points, func(p point) sim.Time {
		net := sys.build(opt.Seed)
		j := mpi.NewJob(net, []topology.NodeID{0, topology.NodeID(npg)},
			mpi.JobOpts{Stack: p.stack})
		var rtts []sim.Time
		j.PingPong(0, 1, p.size, opt.MaxIters, func(rs []sim.Time) { rtts = rs })
		net.Run()
		s := stats.NewSample(len(rtts))
		for _, r := range rtts {
			s.Add(float64(r))
		}
		return sim.Time(s.Median())
	})
	res := &results.Result{}
	t := res.AddTable("rtt", "stack", "size", "rtt2_us")
	for i, p := range points {
		t.Row(
			results.String(p.stack.String()), results.String(workloads.SizeLabel(p.size)),
			results.Float(rtt2[i].Microseconds(), 2),
		)
	}
	return res, nil
}
