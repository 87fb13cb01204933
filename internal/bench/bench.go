// Package bench holds the hot-path benchmark bodies shared between the
// top-level go-test benchmarks (bench_test.go) and cmd/benchreport, which
// runs them via testing.Benchmark and emits BENCH_hotpath.json through the
// internal/results encoders. Keeping the bodies here means the perf
// trajectory file and `go test -bench` always measure the same code.
package bench

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/harness"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/sim/par"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// PacketHotPath streams multi-packet eager messages across a small
// two-group fabric (adaptive routing and Slingshot congestion control on,
// jitter off) and counts delivered data packets, so ns/op and allocs/op
// read directly as per-packet hot-path costs: NIC injection, source-switch
// path choice, per-hop forwarding, DRR scheduling, credits, and the
// end-to-end ack.
func PacketHotPath(b *testing.B) {
	topo := topology.MustNew(topology.Config{
		Groups: 2, SwitchesPerGroup: 2, NodesPerSwitch: 8, GlobalPerPair: 2,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	net := fabric.New(topo, prof, 5)
	delivered := 0
	net.Taps.OnPacketDelivered = func(p *fabric.Packet, _ sim.Time) { delivered++ }

	// 8 flows x 4 outstanding 32 KiB eager messages (8 packets each) keep
	// the fabric busy without saturating it into pathological queueing.
	const msgBytes = 32 * 1024
	b.ReportAllocs()
	b.ResetTimer()
	var post func(src, dst topology.NodeID)
	post = func(src, dst topology.NodeID) {
		if delivered >= b.N {
			return
		}
		net.Send(src, dst, msgBytes, fabric.SendOpts{
			NoRendezvous: true,
			OnDelivered:  func(sim.Time) { post(src, dst) },
		})
	}
	for i := 0; i < 8; i++ {
		for w := 0; w < 4; w++ {
			post(topology.NodeID(i), topology.NodeID(16+i))
		}
	}
	net.RunWhile(func() bool { return delivered < b.N })
}

// PacketHotPathFatTree is PacketHotPath on the fat-tree backend behind
// the same Topology interface: a 2-pod folded Clos with the paper's
// 100 Gb/s RoCE profile (jitter off). Tracking it next to the Dragonfly
// variant keeps the interface-dispatch cost of the refactored fabric
// visible per backend.
func PacketHotPathFatTree(b *testing.B) {
	topo := topology.MustBuild(topology.FatTreeConfig{
		Pods: 2, EdgePerPod: 2, AggPerPod: 2, CorePerAgg: 2, NodesPerEdge: 8,
	})
	prof := fabric.FatTree100GProfile()
	prof.SwitchJitter = false
	net := fabric.New(topo, prof, 5)
	delivered := 0
	net.Taps.OnPacketDelivered = func(p *fabric.Packet, _ sim.Time) { delivered++ }

	const msgBytes = 32 * 1024
	b.ReportAllocs()
	b.ResetTimer()
	var post func(src, dst topology.NodeID)
	post = func(src, dst topology.NodeID) {
		if delivered >= b.N {
			return
		}
		net.Send(src, dst, msgBytes, fabric.SendOpts{
			NoRendezvous: true,
			OnDelivered:  func(sim.Time) { post(src, dst) },
		})
	}
	for i := 0; i < 8; i++ {
		for w := 0; w < 4; w++ {
			post(topology.NodeID(i), topology.NodeID(16+i)) // cross-pod flows
		}
	}
	net.RunWhile(func() bool { return delivered < b.N })
}

// TopoBuild constructs one instance of every backend (a ~64-node
// Dragonfly, fat-tree and HyperX) per iteration, so ns/op and allocs/op
// track the cost of topology construction — the per-grid-cell setup work
// every experiment pays before the first packet moves.
func TopoBuild(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := topology.MustBuild(topology.ScaledConfig(64))
		f := topology.MustBuild(topology.FatTreeFor(64))
		h := topology.MustBuild(topology.HyperXFor(64))
		if d.Nodes() < 64 || f.Nodes() < 64 || h.Nodes() < 64 {
			b.Fatal("backend under-built")
		}
	}
}

// ChoosePath measures one source-switch routing decision for the named
// policy on a warm network (minimal-path cache populated, fabric idle):
// ns/op and allocs/op read directly as the per-packet path-selection cost.
// The flow ID varies per iteration so hash policies exercise every bucket.
// On this cached-minimal path the adaptive policy must stay at 0
// allocs/decision — the gate that keeps routing off the packet hot path's
// allocation budget.
func ChoosePath(policy string) func(b *testing.B) {
	return func(b *testing.B) {
		topo := topology.MustNew(topology.Config{
			Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 2,
		})
		prof := fabric.SlingshotProfile()
		prof.SwitchJitter = false
		pol, err := routing.ByName(policy)
		if err != nil {
			b.Fatal(err)
		}
		prof.Routing = pol
		net := fabric.New(topo, prof, 5)
		src, dst := topology.NodeID(0), topology.NodeID(topo.Nodes()-1)
		if len(net.ChoosePath(src, dst, 0, 0)) == 0 { // warm the cache
			b.Fatal("no path")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if p := net.ChoosePath(src, dst, int64(i), 0); len(p) == 0 {
				b.Fatal("no path")
			}
		}
	}
}

// RunCell runs one full congestion-grid cell per iteration — the unit of
// work the Fig. 9-14 grids scale by (build network, measure the victim
// isolated, start the aggressor, measure congested). ns/op is the cost of
// one cell at reduced scale.
func RunCell(b *testing.B) {
	sys := harness.Shandy(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := harness.RunCell(harness.CellSpec{
			Sys: sys, TotalNodes: 32, VictimFrac: 0.5,
			Aggressor: harness.IncastAggressor, AggrPPN: 1,
			Seed: 7, MinIters: 2, MaxIters: 3,
		}, harness.BenchVictim(workloads.AllreduceBench(8)))
		if r.NA {
			b.Fatal("cell unexpectedly N.A.")
		}
	}
}

// ParallelRun streams cross-group traffic over a 4096-endpoint Dragonfly
// (16 groups x 16 switches x 16 nodes) on the domain-sharded engine with
// the given worker budget, counting delivered data packets: ns/op reads
// as the per-packet cost including the epoch exchange, and comparing the
// domains=1 row against higher budgets shows the parallel speedup (on a
// multi-core host; the decomposition makes the numbers identical either
// way). domains=0 measures the classic single-engine baseline on the same
// machine shape.
func ParallelRun(domains int) func(b *testing.B) {
	return func(b *testing.B) {
		topo := topology.MustNew(topology.Config{
			Groups: 16, SwitchesPerGroup: 16, NodesPerSwitch: 16, GlobalPerPair: 2,
		})
		prof := fabric.SlingshotProfile()
		prof.SwitchJitter = false
		net := fabric.NewSharded(topo, prof, 5, domains)
		delivered := 0
		net.Taps.OnPacketDelivered = func(p *fabric.Packet, _ sim.Time) { delivered++ }

		// 2 flows out of every group, each to the diametric group, 4
		// outstanding 32 KiB eager messages per flow: every domain both
		// sends and receives cross-domain traffic each epoch.
		const msgBytes = 32 * 1024
		npg := 16 * 16
		b.ReportAllocs()
		b.ResetTimer()
		var post func(src, dst topology.NodeID)
		post = func(src, dst topology.NodeID) {
			if delivered >= b.N {
				return
			}
			net.Send(src, dst, msgBytes, fabric.SendOpts{
				NoRendezvous: true,
				OnDelivered:  func(sim.Time) { post(src, dst) },
			})
		}
		for g := 0; g < 16; g++ {
			for f := 0; f < 2; f++ {
				src := topology.NodeID(g*npg + f)
				dst := topology.NodeID(((g+8)%16)*npg + f)
				for w := 0; w < 4; w++ {
					post(src, dst)
				}
			}
		}
		net.RunWhile(func() bool { return delivered < b.N })
	}
}

// flowPoster reposts one (src, dst) bulk flow on each delivery through a
// callback bound once at construction. Fresh closures per repost were one
// of the former 2.0 allocs/flow in FlowEngine; SendOpts.Recycle (the
// fabric's Message free-list) was the other. With both gone the fluid
// Send/solve/complete cycle is 0 allocs/flow in steady state, and the
// benchmarks below pin that.
type flowPoster struct {
	net       *fabric.Network
	src, dst  topology.NodeID
	bytes     int64
	delivered *int
	limit     *int
	cb        func(sim.Time)
}

func newFlowPoster(net *fabric.Network, src, dst topology.NodeID, bytes int64, delivered, limit *int) *flowPoster {
	p := &flowPoster{net: net, src: src, dst: dst, bytes: bytes, delivered: delivered, limit: limit}
	p.cb = p.onDelivered
	return p
}

func (p *flowPoster) onDelivered(sim.Time) {
	*p.delivered++
	p.post()
}

func (p *flowPoster) post() {
	if *p.delivered >= *p.limit {
		return
	}
	p.net.Send(p.src, p.dst, p.bytes, fabric.SendOpts{Bulk: true, Recycle: true, OnDelivered: p.cb})
}

// FlowEngine streams bulk cross-group flows through the flow-level fluid
// engine (fabric.FidelityFlow): 8 flows with 4 outstanding 8 MiB
// transfers each, reposted on delivery. One iteration is one delivered
// flow, so ns/op spread over the flow's bytes (the suite's SimBytes
// metadata) is the fluid path's ns per simulated byte — the number the
// hybrid-fidelity design trades against the packet engine's. A short
// warm-up drains one window before the timer starts so the Message
// free-list and the solver's scratch arrays reach steady state:
// allocs/op is a gated 0.
func FlowEngine(b *testing.B) {
	topo := topology.MustNew(topology.Config{
		Groups: 2, SwitchesPerGroup: 2, NodesPerSwitch: 8, GlobalPerPair: 2,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	net := fabric.New(topo, prof, 5)
	net.SetFidelity(fabric.FidelityFlow)

	delivered, limit := 0, 0
	posters := make([]*flowPoster, 0, 8)
	for i := 0; i < 8; i++ {
		posters = append(posters,
			newFlowPoster(net, topology.NodeID(i), topology.NodeID(16+i), FlowEngineBytes, &delivered, &limit))
	}
	kick := func() {
		for _, p := range posters {
			for w := 0; w < 4; w++ {
				p.post()
			}
		}
	}
	limit = 64
	kick()
	net.RunWhile(func() bool { return delivered < limit })
	// Drain the window through the trailing acks: Recycle returns a
	// Message to the free-list on its ack, so the timed region starts
	// with a fully stocked pool.
	net.RunWhile(func() bool { return net.FlowsCompleted() < net.FlowsStarted() })
	net.RunFor(sim.Millisecond)

	b.ReportAllocs()
	b.ResetTimer()
	delivered, limit = 0, b.N
	kick()
	net.RunWhile(func() bool { return delivered < b.N })
}

// FlowEngineBytes is the per-flow transfer size FlowEngine simulates per
// iteration (the SimBytes metadata for its suite row).
const FlowEngineBytes = 8 << 20

// nopFlowHooks discards completion callbacks: the solver benchmarks
// measure re-solve cost, not completion plumbing.
type nopFlowHooks struct{}

func (nopFlowHooks) FlowDelivered(sim.Time, any) {}
func (nopFlowHooks) FlowAcked(sim.Time, any)     {}

// SolverIncremental measures the fair-share solver's per-churn-event cost
// against a standing population of 10k long-lived flows: each iteration
// starts one short flow and advances past its completion, so the solver
// folds one arrival and one departure. The background flows are
// intra-group (64 Dragonfly groups), so the max–min component each event
// touches is ~1/64th of the flow set — the locality the incremental
// dirty-component re-solve exploits. forceFull pins the pre-incremental
// behaviour (SetForceFull) for the speedup ratio; the acceptance bar is
// incremental >= 5x cheaper per event at this population.
func SolverIncremental(forceFull bool) func(b *testing.B) {
	return func(b *testing.B) {
		topo := topology.MustNew(topology.Config{
			Groups: 64, SwitchesPerGroup: 8, NodesPerSwitch: 4, GlobalPerPair: 1,
		})
		eng := flow.NewEngine(topo, flow.Caps{
			EdgeBits: 200e9, FabricBits: 200e9,
		})
		eng.Hooks = nopFlowHooks{}
		eng.SetForceFull(forceFull)
		rng := sim.NewRNG(11)
		const npg = 8 * 4 // nodes per group
		pair := func(g int) (topology.NodeID, topology.NodeID) {
			src := rng.Intn(npg)
			dst := rng.Intn(npg - 1)
			if dst >= src {
				dst++
			}
			return topology.NodeID(g*npg + src), topology.NodeID(g*npg + dst)
		}
		for i := 0; i < 10000; i++ {
			src, dst := pair(i % 64)
			// Effectively infinite: the background population never drains.
			eng.Start(src, dst, 1<<50, flow.FlowOpts{})
		}
		eng.Resolve()
		at := sim.Time(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src, dst := pair(i % 64)
			// 64 KiB at the group's shared edge rate completes well inside
			// the 1 ms step, so every iteration is exactly one start fold
			// plus one completion fold.
			eng.Start(src, dst, 64<<10, flow.FlowOpts{})
			at += sim.Millisecond
			eng.Advance(at)
		}
	}
}

// FlowShardedBytes is the per-flow transfer size of the FlowSharded rows.
const FlowShardedBytes = 4 << 20

// FlowSharded streams bulk fluid flows over the domain-sharded fabric:
// two intra-group flows and one cross-group flow per group, all on the
// control-side fluid engine, which runs between epochs. One iteration is
// one delivered flow; d1 vs d4 shows what the worker budget buys on a
// fluid-dominated workload (the decomposition — and the result — is
// identical for both).
func FlowSharded(domains int) func(b *testing.B) {
	return func(b *testing.B) {
		topo := topology.MustNew(topology.Config{
			Groups: 8, SwitchesPerGroup: 4, NodesPerSwitch: 8, GlobalPerPair: 2,
		})
		prof := fabric.SlingshotProfile()
		prof.SwitchJitter = false
		net := fabric.NewSharded(topo, prof, 5, domains)
		net.SetFidelity(fabric.FidelityFlow)

		delivered, limit := 0, 0
		const npg = 4 * 8 // nodes per group
		var posters []*flowPoster
		for g := 0; g < 8; g++ {
			base := topology.NodeID(g * npg)
			posters = append(posters,
				newFlowPoster(net, base, base+9, FlowShardedBytes, &delivered, &limit),
				newFlowPoster(net, base+1, base+18, FlowShardedBytes, &delivered, &limit),
				newFlowPoster(net, base+2, topology.NodeID(((g+4)%8)*npg+3), FlowShardedBytes, &delivered, &limit))
		}
		kick := func() {
			for _, p := range posters {
				for w := 0; w < 2; w++ {
					p.post()
				}
			}
		}
		limit = 96
		kick()
		net.RunWhile(func() bool { return delivered < limit })
		net.RunWhile(func() bool { return net.FlowsCompleted() < net.FlowsStarted() })

		b.ReportAllocs()
		b.ResetTimer()
		delivered, limit = 0, b.N
		kick()
		net.RunWhile(func() bool { return delivered < b.N })
	}
}

// FlowScaleBytes is the per-flow transfer size of the FlowScale1M row.
const FlowScaleBytes = 16 << 20

// scale1M caches the million-endpoint fabric across benchmark re-runs:
// the ~10 s build (65536 switches, 1M NICs) would otherwise repeat on
// every b.N ramp and swamp the measurement. Steady-state flow cost does
// not depend on accumulated sim time, so reuse is safe.
//
//simlint:rngok -- benchmark-only cache of one Network (and its owned streams); nothing shares the draw order across simulations
var scale1M *fabric.Network

// FlowScale1M drives bisection traffic across a 1,048,576-endpoint
// Dragonfly (1024 groups of 64 Aries-style 8x8 grid switches, 16 nodes
// each) at flow fidelity: 1024 concurrent 16 MiB transfers from group g
// to group g+512, reposted on delivery. One iteration is one delivered
// flow; ns/op over 16 MiB is the fluid path's ns per simulated byte at
// the scale the paper's fabrics actually ship — the run the incremental
// component solver exists for (a full re-solve touches 4M segments,
// the component around one bisection flow a few hundred).
func FlowScale1M(b *testing.B) {
	if scale1M == nil {
		topo := topology.MustNew(topology.Config{
			Groups: 1024, SwitchesPerGroup: 64, NodesPerSwitch: 16, GlobalPerPair: 1,
			Shape: topology.Grid2D, GridRows: 8,
		})
		prof := fabric.SlingshotProfile()
		prof.SwitchJitter = false
		scale1M = fabric.New(topo, prof, 5)
		scale1M.SetFidelity(fabric.FidelityFlow)
	}
	net := scale1M
	nodes := net.Topo.Nodes()
	delivered, limit := 0, 0
	posters := make([]*flowPoster, 0, 1024)
	for i := 0; i < 1024; i++ {
		src := topology.NodeID(i * 1024)
		dst := topology.NodeID((i*1024 + nodes/2) % nodes)
		posters = append(posters, newFlowPoster(net, src, dst, FlowScaleBytes, &delivered, &limit))
	}
	b.ReportAllocs()
	b.ResetTimer()
	delivered, limit = 0, b.N
	for _, p := range posters {
		p.post()
	}
	net.RunWhile(func() bool { return delivered < b.N })
}

// HybridRun measures the packet-level victim path while fluid bulk
// aggressor flows saturate the same hybrid-fidelity fabric: 4 victim
// flows stream 32 KiB eager messages packet-by-packet, 4 bulk pairs keep
// 2 outstanding 1 MiB fluid transfers each. One iteration is one
// delivered victim data packet, so ns/op reads as the hybrid per-packet
// cost — the packet engine plus the background-load bookkeeping the
// fluid flows impose on it.
func HybridRun(b *testing.B) {
	topo := topology.MustNew(topology.Config{
		Groups: 2, SwitchesPerGroup: 2, NodesPerSwitch: 8, GlobalPerPair: 2,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	net := fabric.New(topo, prof, 5)
	net.SetFidelity(fabric.FidelityHybrid)
	delivered := 0
	net.Taps.OnPacketDelivered = func(p *fabric.Packet, _ sim.Time) { delivered++ }

	const victimBytes = 32 * 1024
	const bulkBytes = 1 << 20
	b.ReportAllocs()
	b.ResetTimer()
	var postVictim func(src, dst topology.NodeID)
	postVictim = func(src, dst topology.NodeID) {
		if delivered >= b.N {
			return
		}
		net.Send(src, dst, victimBytes, fabric.SendOpts{
			NoRendezvous: true,
			OnDelivered:  func(sim.Time) { postVictim(src, dst) },
		})
	}
	var postBulk func(src, dst topology.NodeID)
	postBulk = func(src, dst topology.NodeID) {
		if delivered >= b.N {
			return
		}
		net.Send(src, dst, bulkBytes, fabric.SendOpts{
			Bulk:        true,
			OnDelivered: func(sim.Time) { postBulk(src, dst) },
		})
	}
	for i := 0; i < 4; i++ {
		for w := 0; w < 4; w++ {
			postVictim(topology.NodeID(i), topology.NodeID(16+i))
		}
		for w := 0; w < 2; w++ {
			postBulk(topology.NodeID(4+i), topology.NodeID(20+i))
		}
	}
	net.RunWhile(func() bool { return delivered < b.N })
}

// mailboxBounce forwards each received event to the peer shard one
// lookahead later — the minimal cross-shard workload.
type mailboxBounce struct {
	self, peer *par.Shard
	to         sim.Handler
	look       sim.Time
	left       *int
}

func (h *mailboxBounce) OnEvent(e *sim.Engine, _ *sim.Event) {
	if *h.left <= 0 {
		return
	}
	*h.left--
	h.self.Post(h.peer, e.Now()+h.look, h.to, 0, nil)
}

// MailboxExchange measures the raw cross-shard mailbox path in isolation:
// two shards bounce a window of 64 events back and forth, so every epoch
// posts, drains, sorts and re-schedules 64 messages. ns/op is the
// amortized per-message exchange cost (mailbox append, canonical merge,
// engine scheduling, epoch overhead); allocs/op pins the 0-alloc
// steady-state contract of the exchange path.
func MailboxExchange(b *testing.B) {
	const look = 150 * sim.Nanosecond
	e0, e1 := sim.NewEngine(), sim.NewEngine()
	s0, s1 := par.NewShard(0, e0, 2), par.NewShard(1, e1, 2)
	h0 := &mailboxBounce{self: s0, peer: s1, look: look}
	h1 := &mailboxBounce{self: s1, peer: s0, look: look, to: h0}
	h0.to = h1
	c := par.New([]*par.Shard{s0, s1}, nil, look, 1)
	left := 0
	h0.left, h1.left = &left, &left

	// Warm the mailboxes and free-lists so b.N measures steady state.
	const window = 64
	kick := func() {
		for i := 0; i < window; i++ {
			e0.Schedule(e0.Now()+look, h0, 0, nil)
		}
	}
	left = window
	kick()
	c.Run()

	b.ReportAllocs()
	b.ResetTimer()
	left = b.N
	kick()
	c.Run()
}

// Suite lists the hot-path benchmarks cmd/benchreport runs, with the unit
// one iteration corresponds to, the sharded-engine rows' domain worker
// budget (0 = classic engine), and — where one unit simulates a known
// payload — the simulated bytes per unit, from which benchreport derives
// the ns-per-simulated-byte column that compares fidelities (0 = not a
// byte-moving benchmark).
func Suite() []struct {
	Name     string
	Unit     string
	Domains  int
	SimBytes int64
	Fn       func(*testing.B)
} {
	// Packet benchmarks move full-size 4096-byte payloads
	// (ethernet.MaxPayload) per delivered data packet.
	const packetBytes = 4096
	return []struct {
		Name     string
		Unit     string
		Domains  int
		SimBytes int64
		Fn       func(*testing.B)
	}{
		{"PacketHotPath", "packet", 0, packetBytes, PacketHotPath},
		{"PacketHotPathFatTree", "packet", 0, packetBytes, PacketHotPathFatTree},
		{"FlowEngine", "flow", 0, FlowEngineBytes, FlowEngine},
		{"SolverIncremental/incremental", "event", 0, 0, SolverIncremental(false)},
		{"SolverIncremental/full", "event", 0, 0, SolverIncremental(true)},
		{"FlowSharded/d1", "flow", 1, FlowShardedBytes, FlowSharded(1)},
		{"FlowSharded/d4", "flow", 4, FlowShardedBytes, FlowSharded(4)},
		{"HybridRun", "packet", 0, packetBytes, HybridRun},
		{"ChoosePath/minimal", "decision", 0, 0, ChoosePath("minimal")},
		{"ChoosePath/adaptive", "decision", 0, 0, ChoosePath("adaptive")},
		{"ChoosePath/ecmp", "decision", 0, 0, ChoosePath("ecmp")},
		{"ChoosePath/valiant", "decision", 0, 0, ChoosePath("valiant")},
		{"TopoBuild", "build(x3)", 0, 0, TopoBuild},
		{"RunCell", "cell", 0, 0, RunCell},
		{"MailboxExchange", "msg", 0, 0, MailboxExchange},
		{"ParallelRun/d1", "packet", 1, packetBytes, ParallelRun(1)},
		{"ParallelRun/d2", "packet", 2, packetBytes, ParallelRun(2)},
		{"ParallelRun/d4", "packet", 4, packetBytes, ParallelRun(4)},
		{"ParallelRun/d8", "packet", 8, packetBytes, ParallelRun(8)},
		// Last: FlowScale1M retains its ~3 GiB million-endpoint fabric
		// for the rest of the process (see scale1M).
		{"FlowScale1M", "flow", 0, FlowScaleBytes, FlowScale1M},
	}
}
