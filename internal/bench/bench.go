// Package bench holds the hot-path benchmark suite shared between the
// top-level go-test benchmark (bench_test.go) and cmd/benchreport, which
// emits BENCH_hotpath.json through the internal/results encoders. Every
// row is a fixture: its constructor builds the row's network once and
// returns run, the row's steady-state loop over n units of work. Keeping
// the rows here means the perf trajectory file and `go test -bench`
// always run the same code, and a row's warm-up and measured unit counts
// are constants of the table, not a count chosen by host speed.
package bench

import (
	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/harness"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/sim/par"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// Row is one benchmark of the suite.
type Row struct {
	Name string
	// Unit names one unit of the row's work: a delivered packet or flow,
	// a routing decision, a build.
	Unit string
	// Domains is the sharded engine's worker budget (0 = classic engine).
	Domains int
	// SimBytes is the payload one unit simulates, from which benchreport
	// derives the ns-per-simulated-byte column that compares fidelities
	// (0 = not a byte-moving row).
	SimBytes int64
	// Warm units run before measuring, so free-lists, path caches and
	// scratch arrays reach their steady-state size; Units are measured.
	Warm, Units int
	// Fixture builds the row's network and returns run, which performs n
	// more units of work on it.
	Fixture func() (run func(n int))
}

// Suite lists the hot-path benchmarks in the order cmd/benchreport runs
// and reports them.
func Suite() []Row {
	// Packet rows move full-size 4096-byte payloads (ethernet.MaxPayload)
	// per delivered data packet.
	const packetBytes = 4096
	return []Row{
		{"PacketHotPath", "packet", 0, packetBytes, 20_000, 300_000, packetHotPath},
		{"PacketHotPathFatTree", "packet", 0, packetBytes, 20_000, 200_000, packetHotPathFatTree},
		{"FlowEngine", "flow", 0, flowEngineBytes, 50_000, 300_000, flowEngine},
		// The solver's membership rows grow for ~26,000 events. The full
		// row's ~0.1 s events cannot warm that far, so its allocs/unit is
		// the growth of its first events.
		{"SolverIncremental/incremental", "event", 0, 0, 30_000, 4_000, solverIncremental(false)},
		{"SolverIncremental/full", "event", 0, 0, 2, 8, solverIncremental(true)},
		{"FlowSharded/d1", "flow", 1, flowShardedBytes, 100_000, 600_000, flowSharded(1)},
		{"FlowSharded/d4", "flow", 4, flowShardedBytes, 100_000, 400_000, flowSharded(4)},
		{"HybridRun", "packet", 0, packetBytes, 20_000, 400_000, hybridRun},
		{"ChoosePath/minimal", "decision", 0, 0, 1_000, 20_000_000, choosePath(routing.MinimalOnly{})},
		{"ChoosePath/adaptive", "decision", 0, 0, 1_000, 1_000_000, choosePath(routing.SlingshotAdaptive{})},
		{"ChoosePath/ecmp", "decision", 0, 0, 1_000, 10_000_000, choosePath(routing.ECMPHash{})},
		{"ChoosePath/valiant", "decision", 0, 0, 1_000, 1_000_000, choosePath(routing.ValiantUGAL{})},
		{"TopoBuild", "build(x3)", 0, 0, 10, 20_000, topoBuild},
		{"FabricBuild", "build", 0, 0, 2, 200, fabricBuild},
		{"RunCell", "cell", 0, 0, 2, 400, runCell},
		{"MailboxExchange", "msg", 0, 0, 100_000, 10_000_000, mailboxExchange},
		{"ParallelRun/d1", "packet", 1, packetBytes, 20_000, 150_000, parallelRun(1)},
		{"ParallelRun/d2", "packet", 2, packetBytes, 20_000, 150_000, parallelRun(2)},
		{"ParallelRun/d4", "packet", 4, packetBytes, 20_000, 150_000, parallelRun(4)},
		{"ParallelRun/d8", "packet", 8, packetBytes, 20_000, 150_000, parallelRun(8)},
		// Last: its million-endpoint fabric holds ~1.7 GiB while it runs.
		{"FlowScale1M", "flow", 0, flowScaleBytes, 4_096, 60_000, flowScale1M},
	}
}

// eagerBytes is the packet rows' message size: 8 full packets, sent
// eagerly.
const eagerBytes = 32 * 1024

// until returns the run of a fixture whose units are counted in *done: it
// advances net until n more units have been delivered. The condition is
// built once, so run itself allocates nothing.
func until(net *fabric.Network, done *int) func(n int) {
	target := 0
	more := func() bool { return *done < target }
	return func(n int) {
		target = *done + n
		net.RunWhile(more)
	}
}

// packets makes net's delivered data packets the fixture's unit.
func packets(net *fabric.Network) func(n int) {
	done := new(int)
	net.Taps.OnPacketDelivered = func(*fabric.Packet, sim.Time) { *done++ }
	return until(net, done)
}

// repost keeps window messages of the given size outstanding from src to
// dst, sending the next on each delivery through a fresh callback.
func repost(net *fabric.Network, src, dst topology.NodeID, bytes int64, opts fabric.SendOpts, window int) {
	var post func()
	post = func() {
		o := opts
		o.OnDelivered = func(sim.Time) { post() }
		net.Send(src, dst, bytes, o)
	}
	for w := 0; w < window; w++ {
		post()
	}
}

// flows keeps window bulk fluid flows of the given size outstanding on
// every (src, dst) pair and makes a delivered flow the fixture's unit.
// Each pair reposts through one callback bound here, and SendOpts.Recycle
// returns every Message to the fabric's free-list on its ack, so the
// Send/solve/complete cycle allocates nothing in steady state.
func flows(net *fabric.Network, bytes int64, window int, pairs [][2]topology.NodeID) func(n int) {
	done := new(int)
	for _, p := range pairs {
		opts := fabric.SendOpts{Bulk: true, Recycle: true}
		opts.OnDelivered = func(sim.Time) {
			*done++
			net.Send(p[0], p[1], bytes, opts)
		}
		for w := 0; w < window; w++ {
			net.Send(p[0], p[1], bytes, opts)
		}
	}
	return until(net, done)
}

// twoGroups is the small two-group Dragonfly of the single-engine packet,
// flow and hybrid rows, with the Slingshot profile (jitter off).
func twoGroups(fid fabric.Fidelity) *fabric.Network {
	topo := topology.MustNew(topology.Config{
		Groups: 2, SwitchesPerGroup: 2, NodesPerSwitch: 8, GlobalPerPair: 2,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	net := fabric.New(topo, prof, 5)
	net.SetFidelity(fid)
	return net
}

// crossTraffic streams eager messages from nodes 0-7 to nodes 16-23, 4
// outstanding per pair, and makes a delivered data packet the unit: 8
// flows keep the fabric busy without saturating it into pathological
// queueing.
func crossTraffic(net *fabric.Network) func(n int) {
	run := packets(net)
	for i := 0; i < 8; i++ {
		repost(net, topology.NodeID(i), topology.NodeID(16+i), eagerBytes, fabric.SendOpts{NoRendezvous: true}, 4)
	}
	return run
}

// packetHotPath streams multi-packet eager messages across the two-group
// fabric (adaptive routing and Slingshot congestion control on), so ns
// and allocs per unit read as per-packet hot-path costs: NIC injection,
// source-switch path choice, per-hop forwarding, DRR scheduling, credits,
// and the end-to-end ack.
func packetHotPath() func(n int) { return crossTraffic(twoGroups(fabric.FidelityPacket)) }

// packetHotPathFatTree is packetHotPath on the fat-tree backend behind the
// same Topology interface: a 2-pod folded Clos with the paper's 100 Gb/s
// RoCE profile (jitter off), its flows crossing pods. Tracking it next to
// the Dragonfly row keeps the interface-dispatch cost visible per backend.
func packetHotPathFatTree() func(n int) {
	topo := topology.MustBuild(topology.FatTreeConfig{
		Pods: 2, EdgePerPod: 2, AggPerPod: 2, CorePerAgg: 2, NodesPerEdge: 8,
	})
	prof := fabric.FatTree100GProfile()
	prof.SwitchJitter = false
	return crossTraffic(fabric.New(topo, prof, 5))
}

// topoBuild constructs one instance of every backend (a ~64-node
// Dragonfly, fat-tree and HyperX) per unit: the topology construction
// every grid cell pays before the first packet moves.
func topoBuild() func(n int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			d := topology.MustBuild(topology.ScaledConfig(64))
			f := topology.MustBuild(topology.FatTreeFor(64))
			h := topology.MustBuild(topology.HyperXFor(64))
			if d.Nodes() < 64 || f.Nodes() < 64 || h.Nodes() < 64 {
				panic("bench: backend under-built")
			}
		}
	}
}

// fabricBuild builds the fabric of e2ebench's packet-sharded workload per
// unit, on the classic engine: the Slingshot profile over a 4096-endpoint
// Dragonfly (16 groups x 16 switches x 16 nodes, two global links per
// group pair, 12,512 egress ports). ns and allocs per unit read as the
// cost of fabric.New alone — the switches, NICs and port table every
// network pays before its first packet, and the million-endpoint flow run
// pays at scale.
func fabricBuild() func(n int) {
	topo := topology.MustNew(topology.Config{
		Groups: 16, SwitchesPerGroup: 16, NodesPerSwitch: 16, GlobalPerPair: 2,
	})
	prof := fabric.SlingshotProfile()
	return func(n int) {
		for i := 0; i < n; i++ {
			if net := fabric.New(topo, prof, 5); net.Topo.Nodes() != 4096 {
				panic("bench: fabric under-built")
			}
		}
	}
}

// choosePath measures one source-switch routing decision of the policy
// on a warm network (minimal-path cache populated, fabric idle). The flow
// ID advances per decision so hash policies exercise every bucket. On
// this cached-minimal path every policy must stay at 0 allocs/decision —
// the gate that keeps routing off the packet hot path's allocation
// budget.
func choosePath(pol routing.Policy) func() func(n int) {
	return func() func(n int) {
		topo := topology.MustNew(topology.Config{
			Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 2,
		})
		prof := fabric.SlingshotProfile()
		prof.SwitchJitter = false
		prof.Routing = pol
		net := fabric.New(topo, prof, 5)
		src, dst := topology.NodeID(0), topology.NodeID(topo.Nodes()-1)
		id := int64(0)
		return func(n int) {
			for end := id + int64(n); id < end; id++ {
				if len(net.ChoosePath(src, dst, id, 0)) == 0 {
					panic("bench: no path")
				}
			}
		}
	}
}

// runCell runs one full congestion-grid cell per unit — the unit the
// Fig. 9-14 grids scale by (build network, measure the victim isolated,
// start the aggressor, measure congested) at reduced scale.
func runCell() func(n int) {
	sys := harness.Shandy(32)
	return func(n int) {
		for i := 0; i < n; i++ {
			r := harness.RunCell(harness.CellSpec{
				Sys: sys, TotalNodes: 32, VictimFrac: 0.5,
				Aggressor: harness.IncastAggressor, AggrPPN: 1,
				Seed: 7, MinIters: 2, MaxIters: 3,
			}, harness.BenchVictim(workloads.AllreduceBench(8)))
			if r.NA {
				panic("bench: cell unexpectedly N.A.")
			}
		}
	}
}

// parallelRun streams cross-group traffic over a 4096-endpoint Dragonfly
// (16 groups x 16 switches x 16 nodes) on the domain-sharded engine with
// the given worker budget, and makes a delivered data packet the unit:
// ns per unit includes the epoch exchange, and the d1 row against higher
// budgets shows the parallel speedup on a multi-core host (the
// decomposition makes the results identical either way). Two flows leave
// every group for the diametric group, 4 outstanding 32 KiB eager
// messages each, so every domain both sends and receives cross-domain
// traffic each epoch.
func parallelRun(domains int) func() func(n int) {
	return func() func(n int) {
		topo := topology.MustNew(topology.Config{
			Groups: 16, SwitchesPerGroup: 16, NodesPerSwitch: 16, GlobalPerPair: 2,
		})
		prof := fabric.SlingshotProfile()
		prof.SwitchJitter = false
		net := fabric.NewSharded(topo, prof, 5, domains)
		run := packets(net)
		const npg = 16 * 16
		for g := 0; g < 16; g++ {
			for f := 0; f < 2; f++ {
				src := topology.NodeID(g*npg + f)
				dst := topology.NodeID(((g+8)%16)*npg + f)
				repost(net, src, dst, eagerBytes, fabric.SendOpts{NoRendezvous: true}, 4)
			}
		}
		return run
	}
}

// flowEngineBytes is flowEngine's per-flow transfer size.
const flowEngineBytes = 8 << 20

// flowEngine streams bulk cross-group flows through the flow-level fluid
// engine (fabric.FidelityFlow) on the two-group fabric: 8 pairs with 4
// outstanding 8 MiB transfers each. One unit is one delivered flow, so ns
// per unit spread over the flow's bytes is the fluid path's ns per
// simulated byte — the number the hybrid-fidelity design trades against
// the packet engine's. After the warm-up, allocs/unit is a gated 0.
func flowEngine() func(n int) {
	pairs := make([][2]topology.NodeID, 8)
	for i := range pairs {
		pairs[i] = [2]topology.NodeID{topology.NodeID(i), topology.NodeID(16 + i)}
	}
	return flows(twoGroups(fabric.FidelityFlow), flowEngineBytes, 4, pairs)
}

// nopFlowHooks discards completion callbacks: the solver rows measure
// re-solve cost, not completion plumbing.
type nopFlowHooks struct{}

func (nopFlowHooks) FlowDelivered(sim.Time, any) {}
func (nopFlowHooks) FlowAcked(sim.Time, any)     {}

// solverIncremental measures the fair-share solver's per-churn-event cost
// against a standing population of 10k long-lived flows: each unit starts
// one short flow and advances past its completion, so the solver folds
// one arrival and one departure. The background flows are intra-group (64
// Dragonfly groups), so the max–min component each event touches is
// ~1/64th of the flow set — the locality the incremental dirty-component
// re-solve exploits. forceFull pins the pre-incremental behaviour
// (SetForceFull) for the speedup ratio; the acceptance bar is incremental
// >= 5x cheaper per event at this population.
func solverIncremental(forceFull bool) func() func(n int) {
	return func() func(n int) {
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
		at, i := sim.Time(0), 0
		return func(n int) {
			for end := i + n; i < end; i++ {
				src, dst := pair(i % 64)
				// 64 KiB at the group's shared edge rate completes well
				// inside the 1 ms step, so every unit is exactly one start
				// fold plus one completion fold.
				eng.Start(src, dst, 64<<10, flow.FlowOpts{})
				at += sim.Millisecond
				eng.Advance(at)
			}
		}
	}
}

// flowShardedBytes is flowSharded's per-flow transfer size.
const flowShardedBytes = 4 << 20

// flowSharded streams bulk fluid flows over the domain-sharded fabric:
// two intra-group flows and one cross-group flow per group, 2 outstanding
// each, all on the control-side fluid engine, which runs between epochs.
// One unit is one delivered flow; d1 vs d4 shows what the worker budget
// buys on a fluid-dominated workload (the decomposition — and the result
// — is identical for both).
func flowSharded(domains int) func() func(n int) {
	return func() func(n int) {
		topo := topology.MustNew(topology.Config{
			Groups: 8, SwitchesPerGroup: 4, NodesPerSwitch: 8, GlobalPerPair: 2,
		})
		prof := fabric.SlingshotProfile()
		prof.SwitchJitter = false
		net := fabric.NewSharded(topo, prof, 5, domains)
		net.SetFidelity(fabric.FidelityFlow)
		const npg = 4 * 8 // nodes per group
		var pairs [][2]topology.NodeID
		for g := 0; g < 8; g++ {
			base := topology.NodeID(g * npg)
			pairs = append(pairs,
				[2]topology.NodeID{base, base + 9},
				[2]topology.NodeID{base + 1, base + 18},
				[2]topology.NodeID{base + 2, topology.NodeID(((g+4)%8)*npg + 3)})
		}
		return flows(net, flowShardedBytes, 2, pairs)
	}
}

// flowScaleBytes is flowScale1M's per-flow transfer size.
const flowScaleBytes = 16 << 20

// flowScale1M drives bisection traffic across a 1,048,576-endpoint
// Dragonfly (1024 groups of 64 Aries-style 8x8 grid switches, 16 nodes
// each) at flow fidelity: 1024 concurrent 16 MiB transfers from group g
// to group g+512, reposted on delivery. One unit is one delivered flow;
// ns per unit over 16 MiB is the fluid path's ns per simulated byte at
// the scale the paper's fabrics actually ship — the run the incremental
// component solver exists for (a full re-solve touches 4M segments, the
// component around one bisection flow a few hundred). The build takes
// ~4 s and leaves a ~1.7 GiB heap on a 2-vCPU Xeon VM.
func flowScale1M() func(n int) {
	topo := topology.MustNew(topology.Config{
		Groups: 1024, SwitchesPerGroup: 64, NodesPerSwitch: 16, GlobalPerPair: 1,
		Shape: topology.Grid2D, GridRows: 8,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	net := fabric.New(topo, prof, 5)
	net.SetFidelity(fabric.FidelityFlow)
	nodes := topo.Nodes()
	pairs := make([][2]topology.NodeID, 1024)
	for i := range pairs {
		pairs[i] = [2]topology.NodeID{topology.NodeID(i * 1024), topology.NodeID((i*1024 + nodes/2) % nodes)}
	}
	return flows(net, flowScaleBytes, 1, pairs)
}

// hybridRun measures the packet-level victim path while fluid bulk
// aggressor flows saturate the same hybrid-fidelity fabric: 4 victim
// pairs stream 32 KiB eager messages packet by packet, 4 bulk pairs keep
// 2 outstanding 1 MiB fluid transfers each. One unit is one delivered
// victim data packet, so ns per unit reads as the hybrid per-packet cost
// — the packet engine plus the background-load bookkeeping the fluid
// flows impose on it.
func hybridRun() func(n int) {
	net := twoGroups(fabric.FidelityHybrid)
	run := packets(net)
	for i := 0; i < 4; i++ {
		repost(net, topology.NodeID(i), topology.NodeID(16+i), eagerBytes, fabric.SendOpts{NoRendezvous: true}, 4)
		repost(net, topology.NodeID(4+i), topology.NodeID(20+i), 1<<20, fabric.SendOpts{Bulk: true}, 2)
	}
	return run
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

// mailboxExchange measures the raw cross-shard mailbox path in isolation:
// two shards bounce a window of 64 events back and forth, so every epoch
// posts, drains, sorts and re-schedules 64 messages. One unit is one
// posted message: ns per unit is the amortized exchange cost (mailbox
// append, canonical merge, engine scheduling, epoch overhead), and
// allocs per unit pins the 0-alloc steady-state contract of the exchange
// path.
func mailboxExchange() func(n int) {
	const look = 150 * sim.Nanosecond
	e0, e1 := sim.NewEngine(), sim.NewEngine()
	s0, s1 := par.NewShard(0, e0, 2), par.NewShard(1, e1, 2)
	left := 0
	h0 := &mailboxBounce{self: s0, peer: s1, look: look, left: &left}
	h1 := &mailboxBounce{self: s1, peer: s0, look: look, to: h0, left: &left}
	h0.to = h1
	c := par.New([]*par.Shard{s0, s1}, nil, look, 1)
	return func(n int) {
		left = n
		for i := 0; i < 64; i++ {
			e0.Schedule(e0.Now()+look, h0, 0, nil)
		}
		c.Run()
	}
}
