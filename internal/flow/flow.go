// Package flow is the flow-level (fluid) fast path of the simulator: it
// advances bulk transfers on coarse epochs using a progressive-filling
// max–min fair-share rate solver over the same topology.Topology the
// packet engine routes on, instead of moving individual packets through
// switch queues. A flow is a (src node, dst node, bytes) triple pinned to
// one cached minimal path; the solver assigns every active flow the
// max–min fair rate given directed segment capacities, and Advance
// integrates remaining bytes between rate changes analytically — the only
// "events" are flow arrivals, flow completions, and the caller's own
// epoch ticks.
//
// Re-solving is incremental: a flow start or finish dirties only the
// segments it crosses, and the solver re-fills just the affected
// component — the segments reachable from the dirty seeds through
// shared-flow adjacency. Max–min fairness decomposes exactly over such
// components (flows in different components share no segment, so no
// bottleneck constraint couples them), and both the full and the
// component solve enumerate flows in canonical id order, so the
// incremental result is bit-identical to re-solving from scratch while
// costing O(component) instead of O(flows x path length) per event.
//
// Fidelity contract: rates are exact max–min fair shares on the chosen
// paths, but there is no queuing delay, no adaptive per-packet spreading
// beyond the per-flow path choice, and no congestion control. Callers
// that need those effects (victims, incast hotspots, throttled pairs)
// must keep them on the packet engine — see fabric's hybrid mode. The
// calibration tests in internal/harness bound the resulting error
// against the packet engine on golden-scale scenarios.
//
// Determinism: the engine is driven only from fabric's control engine (a
// single goroutine, which on a sharded fabric runs only between epochs),
// every iteration order is slice order or canonical id order, path
// choice is deterministic given the active flow set, and completion
// callbacks fire in (time, enqueue-sequence) order from a binary heap.
// The minimal-path cache is a map but is only ever keyed, never iterated.
// No RNG, no wall clock.
//
// Segment state is built on first use: an engine starts with one index
// entry per segment, and a segment's record (capacity, flow count, rate,
// membership row, solver stamps) is created the first time a flow's path
// crosses it, so a million-endpoint fabric pays only for the segments its
// traffic touches.
//
// Steady-state epochs are alloc-free after warm-up: flow records are
// free-listed, segment records persist once created, per-fill scratch
// (residual capacity, unfixed counts, CSR flow lists) lives in
// engine-owned slices that are re-stamped rather than reallocated, and
// the callback heap reuses its backing array.
package flow

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// Caps carries the effective (goodput) capacity of each link class in
// bits per second. The fabric adapter derives these from its Profile by
// multiplying raw line rate with the Ethernet framing efficiency at the
// profile's cell size, so a fluid flow saturating a segment moves payload
// bytes at the same rate a packet stream saturating the link would.
type Caps struct {
	EdgeBits   float64 // node<->switch links, each direction
	FabricBits float64 // switch<->switch links, each direction
}

// Hooks receives flow completion callbacks. Delivered fires when the last
// byte would land at the destination (fluid completion plus the flow's
// ExtraLatency); Acked fires AckLatency later. The arg is the opaque
// per-flow value passed to Start — callbacks carry no closures so the
// spine stays allocation-free.
type Hooks interface {
	FlowDelivered(at sim.Time, arg any)
	FlowAcked(at sim.Time, arg any)
}

// FlowOpts parameterises one Start call.
type FlowOpts struct {
	// ExtraBytes inflates the fluid transfer to charge per-message serial
	// overheads (host injection gap, rendezvous inter-message gap) as
	// their bandwidth-equivalent, so streaming throughput calibrates.
	ExtraBytes int64
	// ExtraLatency is the quiet-path latency (host gap, NIC, wire
	// propagation, switch traversals, handshakes) added to the fluid
	// completion time before Delivered fires.
	ExtraLatency sim.Time
	// AckLatency separates Acked from Delivered (reverse-path latency).
	AckLatency sim.Time
	// Arg is handed back verbatim to both hooks.
	Arg any
}

// Flow is one active fluid transfer. Records are engine-owned and
// free-listed; callers never hold one past Start.
type Flow struct {
	id        int64
	src, dst  topology.NodeID
	remaining float64  // payload+overhead bytes left
	rate      float64  // bits/s, assigned by the solver
	proj      sim.Time // projected completion at rate, as of the engine clock
	segs      []int32  // segment record indices (Engine.segs), reused capacity
	segPos    []int32  // this flow's slot in segs[i]'s membership row
	mark      int32    // component-BFS visit generation
	extraLat  sim.Time
	ackLat    sim.Time
	arg       any
}

// segment is one directed segment's record, created the first time a
// flow's path crosses the segment.
type segment struct {
	cap     float64     // effective bits/s
	rate    float64     // solver-allocated bits/s (persistent, for BG export)
	flows   int32       // live flow count (path choice)
	stamp   int32       // last solver stamp that touched the segment
	slot    int32       // the segment's slot in the current fill's touched arrays
	dirty   int32       // dirty generation that last seeded the segment
	inRated bool        // listed in Engine.rated
	memb    []membEntry // active flows on the segment (component BFS)
}

// membEntry is one active flow's membership on a segment: the flow plus
// which of its own segs entries this segment is, so a swap-removal can
// repair the moved entry's back-pointer in O(1).
type membEntry struct {
	f  *Flow
	si int32
}

// pendingCB is a completion callback waiting for its fire time; ack
// selects which hook. The heap orders by (at, seq) so ties break on
// enqueue order.
type pendingCB struct {
	at  sim.Time
	seq int64
	ack bool
	arg any
}

// Engine advances a set of fluid flows over directed capacity segments.
// One segment exists per directed switch-to-switch link slot
// (Topology.Slot) — parallel links between a switch pair pool into one
// segment, matching the packet engine's round-robin port spreading —
// plus one per node for each edge-link direction.
type Engine struct {
	topo  topology.Topology
	Hooks Hooks

	// Segment ids, fixed at construction: the fabric segments are the link
	// slots (Topology.Slot), then come every node's edge-up segment from
	// edgeUp and every node's edge-down segment from edgeDn, both indexed
	// by node id. segIdx[id] is the id's record in segs plus one, or 0
	// while no flow has crossed the segment; records are appended on
	// first crossing and never removed.
	caps   Caps
	edgeUp int32
	edgeDn int32
	segIdx []int32
	segs   []segment

	// paths caches minimal-path candidates keyed by (src switch << 32 |
	// dst switch). A map (lookups only, never iterated — determinism is
	// preserved) instead of dense per-source rows: million-endpoint
	// fabrics would pay ~1.5 MB per distinct source switch for rows.
	paths map[int64][]topology.Path

	active   []*Flow
	freeList []*Flow
	nextID   int64
	nextSeq  int64

	activeTo []int32 // active bulk flows per destination node

	// Dirty-seed tracking: segments touched by flow starts/finishes since
	// the last solve, deduplicated by a generation mark.
	dirty     bool
	dirtySegs []int32
	dirtyGen  int32
	forceFull bool  // always re-solve from scratch (bench/test reference)
	solved    bool  // a full solve has run; incremental patching is valid
	solves    int64 // solver invocations (regression tests pin this)
	visits    int64 // flows visited by Advance's and NextWake's O(active) passes
	drained   bool  // Start admitted a flow with nothing left to send

	// minProj is the earliest projected completion over the active flows
	// unless projStale, which a rate change or a retirement may set; the
	// next reader then rescans.
	minProj   sim.Time
	projStale bool
	done      []int32 // active indices drained by the current progress pass

	// Solver scratch, stamped per solve.
	stamp    int32
	visit    int32   // flow-mark generation for the component BFS
	touched  []int32 // segments used by the current fill set
	comp     []int32 // component BFS queue / segment list
	order    []*Flow // fill working set, canonical id order
	sorter   byID
	resid    []float64 // per-slot residual capacity
	unfixed  []int32   // per-slot count of unfixed flows
	csrStart []int32   // per-slot CSR bounds into csrFlow
	csrPos   []int32
	csrFlow  []int32 // order indices grouped by slot
	rated    []int32 // segments possibly carrying nonzero rate

	now        sim.Time
	progressed float64 // whole+fractional bytes advanced since TakeProgress

	cbs []pendingCB // binary heap by (at, seq)
}

// byID orders the solver's working set canonically by flow id through a
// persistent sorter struct (no per-solve boxing). Canonical order is what
// makes the incremental component solve bit-identical to the full one:
// swap-removal permutes the active slice, so enumeration order must not
// depend on removal history.
type byID struct{ f []*Flow }

func (o *byID) Len() int           { return len(o.f) }
func (o *byID) Less(i, j int) bool { return o.f[i].id < o.f[j].id }
func (o *byID) Swap(i, j int)      { o.f[i], o.f[j] = o.f[j], o.f[i] }

// NewEngine builds an engine over topo with no segment records: a
// segment's record, capacity included, is created when a flow's path
// first crosses it. Capacities pool parallel links: a Dragonfly pair
// joined by two global links yields one segment at twice FabricBits,
// which is how the packet engine's round-robin over parallel ports
// behaves in aggregate.
func NewEngine(topo topology.Topology, caps Caps) *Engine {
	e := &Engine{topo: topo, caps: caps, dirtyGen: 1, minProj: sim.Forever}
	e.paths = make(map[int64][]topology.Path)
	nodes := topo.Nodes()
	slots := topo.SlotBase(topology.SwitchID(topo.Switches()))
	e.edgeUp = int32(slots)
	e.edgeDn = int32(slots + nodes)
	e.segIdx = make([]int32, slots+2*nodes)
	e.activeTo = make([]int32, nodes)
	return e
}

// capOf is segment id's capacity: EdgeBits on an edge segment, and on a
// fabric slot FabricBits added once per parallel link.
func (e *Engine) capOf(id int32) float64 {
	if id >= e.edgeUp {
		return e.caps.EdgeBits
	}
	links, _ := e.topo.SlotLinks(int(id))
	c := 0.0
	for i := 0; i < links; i++ {
		c += e.caps.FabricBits
	}
	return c
}

// record returns segment id's record index, creating the record on the
// first crossing.
func (e *Engine) record(id int32) int32 {
	if k := e.segIdx[id]; k > 0 {
		return k - 1
	}
	e.segs = append(e.segs, segment{cap: e.capOf(id)})
	k := int32(len(e.segs))
	e.segIdx[id] = k
	return k - 1
}

// rateOf returns the allocated rate and capacity of segment id; an
// untouched segment carries nothing.
func (e *Engine) rateOf(id int32) (rate, cap float64) {
	if k := e.segIdx[id]; k > 0 {
		sg := &e.segs[k-1]
		return sg.rate, sg.cap
	}
	return 0, e.capOf(id)
}

// flowsOn returns the live flow count on segment id.
func (e *Engine) flowsOn(id int32) int32 {
	if k := e.segIdx[id]; k > 0 {
		return e.segs[k-1].flows
	}
	return 0
}

// Now returns the engine's fluid clock (the last Advance target).
func (e *Engine) Now() sim.Time { return e.now }

// Active returns the number of in-flight flows.
func (e *Engine) Active() int { return len(e.active) }

// ActiveTo returns the number of in-flight flows destined to node n —
// the hybrid classifier's incast fan-in signal.
func (e *Engine) ActiveTo(n topology.NodeID) int { return int(e.activeTo[n]) }

// Solves returns how many times the fair-share solver has run — the
// redundant-resolve regression tests pin this on quiet intervals.
func (e *Engine) Solves() int64 { return e.solves }

// SetForceFull switches the engine to always re-solve from scratch
// instead of patching the affected component — the reference mode the
// equivalence tests and the SolverIncremental bench rows compare against.
func (e *Engine) SetForceFull(v bool) { e.forceFull = v }

// SegmentRate returns the solver-allocated bits/s on the fabric segment
// of a link slot (Topology.Slot), and the segment's capacity. Valid
// after the last Advance/Start (the solver runs lazily; call Resolve
// first if rates must be fresh).
func (e *Engine) SegmentRate(slot int) (rate, cap float64) {
	return e.rateOf(int32(slot))
}

// EdgeDownRate returns allocated bits/s and capacity on the switch->node
// edge segment of n.
func (e *Engine) EdgeDownRate(n topology.NodeID) (rate, cap float64) {
	return e.rateOf(e.edgeDn + int32(n))
}

// EdgeUpRate returns allocated bits/s and capacity on the node->switch
// edge segment of n.
func (e *Engine) EdgeUpRate(n topology.NodeID) (rate, cap float64) {
	return e.rateOf(e.edgeUp + int32(n))
}

// markDirty seeds the next solve's affected-component expansion with
// segment record s.
//
//simlint:hotpath
func (e *Engine) markDirty(s int32) {
	e.dirty = true
	if e.segs[s].dirty == e.dirtyGen {
		return
	}
	e.segs[s].dirty = e.dirtyGen
	e.dirtySegs = append(e.dirtySegs, s)
}

// TakeProgress returns the whole bytes delivered by fluid progress since
// the previous call, retaining the fractional remainder. The adapter
// feeds this into its delivered-bytes counters so bandwidth measurements
// see smooth progress rather than end-of-flow steps.
func (e *Engine) TakeProgress() int64 {
	whole := int64(e.progressed)
	e.progressed -= float64(whole)
	return whole
}

// Resolve runs the fair-share solver if the active set changed since the
// last solve. Exposed so background-load publication can snapshot fresh
// rates without advancing time; the engine must already stand at the set
// change's event time.
func (e *Engine) Resolve() {
	if e.dirty {
		e.solve()
	}
}

// Start admits a fluid flow of bytes payload bytes from src to dst and
// returns its id. Path choice is deterministic: among the cached minimal
// candidates, the one whose most-loaded fabric segment carries the
// fewest flows (ties: fewer total flows, then candidate order). The rate
// solve is lazy — it folds in at the next Advance/Resolve, so a burst of
// Starts at one instant costs one component solve, not one per Start.
func (e *Engine) Start(src, dst topology.NodeID, bytes int64, opt FlowOpts) int64 {
	f := e.alloc()
	f.src, f.dst = src, dst
	f.remaining = float64(bytes + opt.ExtraBytes)
	if f.remaining <= completionEps {
		e.drained = true
	}
	f.rate = 0
	f.proj = sim.Forever
	f.extraLat = opt.ExtraLatency
	f.ackLat = opt.AckLatency
	f.arg = opt.Arg
	e.buildSegs(f)
	for i, s := range f.segs {
		sg := &e.segs[s]
		sg.flows++
		f.segPos = append(f.segPos, int32(len(sg.memb)))
		sg.memb = append(sg.memb, membEntry{f: f, si: int32(i)}) //simlint:retained -- membership row; cleared on remove
		e.markDirty(s)
	}
	e.activeTo[dst]++
	e.active = append(e.active, f)
	return f.id
}

// alloc takes a flow record off the free list (or mints one) and stamps
// a fresh id.
func (e *Engine) alloc() *Flow {
	var f *Flow
	if n := len(e.freeList); n > 0 {
		f = e.freeList[n-1]
		e.freeList = e.freeList[:n-1]
	} else {
		f = &Flow{}
	}
	e.nextID++
	f.id = e.nextID
	return f
}

// buildSegs fills f.segs with the records of the chosen path's directed
// segments — edge up, fabric hops, edge down — creating each record the
// first time a path crosses its segment.
func (e *Engine) buildSegs(f *Flow) {
	f.segs = f.segs[:0]
	f.segPos = f.segPos[:0]
	f.segs = append(f.segs, e.record(e.edgeUp+int32(f.src)))
	a, b := e.topo.SwitchOf(f.src), e.topo.SwitchOf(f.dst)
	if a != b {
		p := e.choosePath(a, b)
		for i := 0; i+1 < len(p); i++ {
			f.segs = append(f.segs, e.record(int32(e.topo.Slot(p[i], p[i+1]))))
		}
	}
	f.segs = append(f.segs, e.record(e.edgeDn+int32(f.dst)))
}

// choosePath picks among the cached minimal candidates by current flow
// load — a cheap stand-in for the packet engine's adaptive spreading
// that keeps parallel minimal routes evenly filled.
func (e *Engine) choosePath(a, b topology.SwitchID) topology.Path {
	cands := e.candidates(a, b)
	best := 0
	bestMax, bestSum := int32(1<<30), int32(1<<30)
	for ci, p := range cands {
		var mx, sum int32
		for i := 0; i+1 < len(p); i++ {
			n := e.flowsOn(int32(e.topo.Slot(p[i], p[i+1])))
			if n > mx {
				mx = n
			}
			sum += n
		}
		if mx < bestMax || (mx == bestMax && sum < bestSum) {
			best, bestMax, bestSum = ci, mx, sum
		}
	}
	return cands[best]
}

// candidates returns the cached minimal paths a->b, building the entry on
// first use (MinimalPaths is deterministic and RNG-free by the Topology
// contract, so the returned slices cache safely). The cache is keyed,
// never iterated.
func (e *Engine) candidates(a, b topology.SwitchID) []topology.Path {
	key := int64(a)<<32 | int64(b)
	ps, ok := e.paths[key]
	if !ok {
		ps = e.topo.MinimalPaths(a, b, topology.RouteCandidates)
		e.paths[key] = ps //simlint:retained -- per-pair path cache, bounded by used pairs
	}
	return ps
}

// Candidates exposes the cached minimal candidates for src->dst switches
// (the fabric's fluid latency model reuses this cache instead of growing
// its own dense rows).
func (e *Engine) Candidates(a, b topology.SwitchID) []topology.Path {
	return e.candidates(a, b)
}

// remove drops active[i] (swap with last; deterministic given the call
// sequence) and returns the record to the free list.
func (e *Engine) remove(i int) {
	f := e.active[i]
	for si, s := range f.segs {
		sg := &e.segs[s]
		sg.flows--
		// Membership swap-removal with back-pointer repair.
		row := sg.memb
		k := f.segPos[si]
		last := len(row) - 1
		row[k] = row[last]
		row[last] = membEntry{}
		sg.memb = row[:last]
		if int(k) < last {
			moved := row[k]
			moved.f.segPos[moved.si] = k
		}
		e.markDirty(s)
	}
	e.activeTo[f.dst]--
	last := len(e.active) - 1
	e.active[i] = e.active[last]
	e.active[last] = nil
	e.active = e.active[:last]
	f.arg = nil
	e.freeList = append(e.freeList, f)
}
