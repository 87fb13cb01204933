package harness

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

var (
	fig2Defaults = Options{Nodes: 64, MinIters: 200, MaxIters: 2000}
	fig4Defaults = Options{Nodes: 64, MinIters: 20, MaxIters: 60}
	fig5Defaults = Options{Nodes: 64, MinIters: 3, MaxIters: 10}
)

func init() {
	Register(Experiment{
		Name:           "fig2",
		Desc:           "switch traversal latency distribution (2-hop minus 1-hop RoCE)",
		DefaultOptions: fig2Defaults,
		Run: func(opt Options) (*results.Result, error) {
			return Fig2SwitchLatency(opt).Result(), nil
		},
	})
	Register(Experiment{
		Name:           "fig4",
		Desc:           "latency and bandwidth vs node distance and message size",
		DefaultOptions: fig4Defaults,
		Run: func(opt Options) (*results.Result, error) {
			return Fig4Distance(opt).Result(), nil
		},
	})
	Register(Experiment{
		Name:           "fig5",
		Desc:           "RTT/2 across software stacks and message sizes",
		DefaultOptions: fig5Defaults,
		Run: func(opt Options) (*results.Result, error) {
			return Fig5Stacks(opt).Result(), nil
		},
	})
}

// Fig2Result is the Fig. 2 switch-latency distribution for RoCE traffic:
// the latency difference between 2-hop and 1-hop transfers.
type Fig2Result struct {
	Samples *stats.Sample // nanoseconds
}

// Fig2SwitchLatency measures the Rosetta traversal latency exactly as the
// paper does: the difference between 2-hop (two switches, same group) and
// 1-hop (same switch) path latencies for 8 B RoCE messages on a quiet
// system.
func Fig2SwitchLatency(opt Options) Fig2Result {
	opt = opt.withDefaults(fig2Defaults)
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

	// 2-hop samples: nodes on two switches of the same group.
	out := stats.NewSample(opt.MaxIters)
	for i := 0; i < opt.MaxIters; i++ {
		l := oneWay(0, topology.NodeID(nps)).Nanoseconds()
		out.Add(l - med)
	}
	return Fig2Result{Samples: out}
}

// Result converts the measurement to the uniform structured form.
func (r Fig2Result) Result() *results.Result {
	s := r.Samples
	res := &results.Result{}
	res.AddTable("distribution", "metric", "value_ns").
		Row(results.String("mean"), results.Float(s.Mean(), 1)).
		Row(results.String("median"), results.Float(s.Median(), 1)).
		Row(results.String("p1"), results.Float(s.Percentile(1), 1)).
		Row(results.String("p99"), results.Float(s.Percentile(99), 1)).
		Row(results.String("min"), results.Float(s.Min(), 1)).
		Row(results.String("max"), results.Float(s.Max(), 1))
	return res
}

// Fig4Row is one (distance, size) cell of Fig. 4: the latency boxplot and
// the streaming bandwidth.
type Fig4Row struct {
	Distance string
	Size     int64
	Latency  stats.BoxStats // microseconds
	GBits    float64        // streaming bandwidth, Gb/s
}

// Fig4Result reproduces Fig. 4: latency and bandwidth for node distances
// (same switch / different switches / different groups) across message
// sizes, on an isolated system.
type Fig4Result struct {
	Rows []Fig4Row
}

// Fig4Sizes are the paper's four message sizes.
var Fig4Sizes = [...]int64{8, 1024, 128 * 1024, 4 * 1024 * 1024}

// Fig4Distance runs the Fig. 4 grid. Every (distance, size) point builds
// a fresh network, so points run in parallel across opt.Jobs workers.
func Fig4Distance(opt Options) Fig4Result {
	opt = opt.withDefaults(fig4Defaults)
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
	rows := parallelMap(opt.gridJobs(), points, func(p point) Fig4Row {
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
		gbits := streamBandwidth(sys, opt.Seed, topology.NodeID(p.dst), p.size)
		return Fig4Row{Distance: p.name, Size: p.size, Latency: lat.Box(), GBits: gbits}
	})
	return Fig4Result{Rows: rows}
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

// Result converts the measurement to the uniform structured form.
func (r Fig4Result) Result() *results.Result {
	res := &results.Result{}
	t := res.AddTable("grid", "distance", "size", "S_us", "Q1", "median", "Q3", "L", "Gbps")
	for _, row := range r.Rows {
		t.Row(
			results.String(row.Distance), results.String(sizeName(row.Size)),
			results.Float(row.Latency.S, 2), results.Float(row.Latency.Q1, 2),
			results.Float(row.Latency.Median, 2), results.Float(row.Latency.Q3, 2),
			results.Float(row.Latency.L, 2), results.Float(row.GBits, 2),
		)
	}
	return res
}

func sizeName(s int64) string {
	switch {
	case s >= 1<<20:
		return fmt.Sprintf("%dMiB", s>>20)
	case s >= 1024:
		return fmt.Sprintf("%dKiB", s>>10)
	default:
		return fmt.Sprintf("%dB", s)
	}
}

// Fig5Point is one (stack, size) measurement of Fig. 5.
type Fig5Point struct {
	Stack mpi.Stack
	Size  int64
	RTT2  sim.Time // half round-trip
}

// Fig5Result reproduces Fig. 5: RTT/2 across software stacks and sizes.
type Fig5Result struct {
	Points []Fig5Point
}

// Fig5Sizes spans 8 B to 16 MiB in decade-ish steps like the paper's
// log-scale x axis.
var Fig5Sizes = [...]int64{8, 64, 512, 1024, 4096, 32 * 1024, 256 * 1024, 2 << 20, 16 << 20}

// Fig5Stacks runs the Fig. 5 grid between two nodes in different groups.
// Points build independent networks and run in parallel.
func Fig5Stacks(opt Options) Fig5Result {
	opt = opt.withDefaults(fig5Defaults)
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
	out := parallelMap(opt.gridJobs(), points, func(p point) Fig5Point {
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
		return Fig5Point{Stack: p.stack, Size: p.size, RTT2: sim.Time(s.Median())}
	})
	return Fig5Result{Points: out}
}

// Result converts the measurement to the uniform structured form.
func (r Fig5Result) Result() *results.Result {
	res := &results.Result{}
	t := res.AddTable("rtt", "stack", "size", "rtt2_us")
	for _, p := range r.Points {
		t.Row(
			results.String(p.Stack.String()), results.String(sizeName(p.Size)),
			results.Float(p.RTT2.Microseconds(), 2),
		)
	}
	return res
}
