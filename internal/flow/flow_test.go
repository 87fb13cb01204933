package flow

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func testTopo(t *testing.T) topology.Topology {
	t.Helper()
	return topology.MustBuild(topology.Config{
		Groups: 3, SwitchesPerGroup: 4, NodesPerSwitch: 2, GlobalPerPair: 1,
	})
}

const (
	tEdge   = 100e9
	tFabric = 200e9
)

func newTestEngine(t *testing.T) *Engine {
	return NewEngine(testTopo(t), Caps{EdgeBits: tEdge, FabricBits: tFabric})
}

// recorder collects completion callbacks.
type recorder struct {
	delivered []cbRec
	acked     []cbRec
}

type cbRec struct {
	at  sim.Time
	arg any
}

func (r *recorder) FlowDelivered(at sim.Time, arg any) {
	r.delivered = append(r.delivered, cbRec{at, arg})
}
func (r *recorder) FlowAcked(at sim.Time, arg any) {
	r.acked = append(r.acked, cbRec{at, arg})
}

func TestSingleFlowEdgeLimited(t *testing.T) {
	e := newTestEngine(t)
	rec := &recorder{}
	e.Hooks = rec
	const bytes = 1 << 20
	lat := 2 * sim.Microsecond
	e.Start(0, 10, bytes, FlowOpts{ExtraLatency: lat, AckLatency: sim.Microsecond, Arg: "f"})
	e.Resolve()
	if got := e.active[0].rate; math.Abs(got-tEdge) > 1 {
		t.Fatalf("single flow rate = %g, want edge cap %g", got, tEdge)
	}
	want := sim.Time(float64(bytes)*8e12/tEdge) + lat
	e.Advance(want + sim.Millisecond)
	if len(rec.delivered) != 1 || rec.delivered[0].arg != "f" {
		t.Fatalf("delivered = %+v, want 1 callback", rec.delivered)
	}
	got := rec.delivered[0].at
	if got < want || got > want+2 {
		t.Fatalf("delivered at %v, want ~%v", got, want)
	}
	if ack := rec.acked[0].at; ack != got+sim.Microsecond {
		t.Fatalf("acked at %v, want %v", ack, got+sim.Microsecond)
	}
	if e.Active() != 0 || e.ActiveTo(10) != 0 {
		t.Fatalf("flow not retired: active=%d activeTo=%d", e.Active(), e.ActiveTo(10))
	}
	if got := e.TakeProgress(); got != bytes {
		t.Fatalf("TakeProgress = %d, want %d", got, bytes)
	}
}

func TestFairShareSameDestination(t *testing.T) {
	e := newTestEngine(t)
	e.Hooks = &recorder{}
	// Two flows into node 10 share its down edge; each gets half.
	e.Start(0, 10, 1<<20, FlowOpts{})
	e.Start(2, 10, 1<<20, FlowOpts{})
	e.Resolve()
	for i, f := range e.active {
		if math.Abs(f.rate-tEdge/2) > 1 {
			t.Fatalf("flow %d rate = %g, want %g", i, f.rate, tEdge/2)
		}
	}
	if e.ActiveTo(10) != 2 {
		t.Fatalf("ActiveTo = %d, want 2", e.ActiveTo(10))
	}
}

// refSolve is an independent progressive-filling reference using maps;
// the engine must agree with it on every flow's rate.
func refSolve(flows []*Flow, segCap []float64) map[int64]float64 {
	resid := map[int32]float64{}
	count := map[int32]int{}
	for _, f := range flows {
		for _, s := range f.segs {
			if _, ok := resid[s]; !ok {
				resid[s] = segCap[s]
			}
			count[s]++
		}
	}
	rate := map[int64]float64{}
	for len(rate) < len(flows) {
		bottleneck, share := int32(-1), math.Inf(1)
		for s, c := range count {
			if c <= 0 {
				continue
			}
			if sh := resid[s] / float64(c); sh < share ||
				(sh == share && (bottleneck < 0 || s < bottleneck)) {
				bottleneck, share = s, sh
			}
		}
		if bottleneck < 0 {
			break
		}
		for _, f := range flows {
			if _, done := rate[f.id]; done {
				continue
			}
			on := false
			for _, s := range f.segs {
				if s == bottleneck {
					on = true
				}
			}
			if !on {
				continue
			}
			rate[f.id] = share
			for _, s := range f.segs {
				resid[s] -= share
				count[s]--
			}
		}
	}
	return rate
}

func TestSolverMatchesReference(t *testing.T) {
	e := newTestEngine(t)
	e.Hooks = &recorder{}
	nodes := e.topo.Nodes()
	// A deterministic strided mix: local, global, and incast-ish pairs.
	for i := 0; i < 40; i++ {
		src := topology.NodeID((i * 5) % nodes)
		dst := topology.NodeID((i*11 + 7) % nodes)
		if src == dst {
			dst = (dst + 1) % topology.NodeID(nodes)
		}
		e.Start(src, dst, 1<<20, FlowOpts{})
	}
	e.Resolve()
	caps := make([]float64, len(e.segs))
	for s, sg := range e.segs {
		caps[s] = sg.cap
	}
	want := refSolve(e.active, caps)
	for _, f := range e.active {
		w := want[f.id]
		if math.Abs(f.rate-w) > 1e-3*w+1 {
			t.Fatalf("flow %d (%d->%d): rate %g, reference %g", f.id, f.src, f.dst, f.rate, w)
		}
	}
	// Feasibility: allocated rate never exceeds any segment capacity.
	for s, sg := range e.segs {
		if sg.rate > sg.cap*(1+1e-9)+1 {
			t.Fatalf("segment %d oversubscribed: %g > %g", s, sg.rate, sg.cap)
		}
	}
}

func TestSegmentRateExport(t *testing.T) {
	e := newTestEngine(t)
	e.Hooks = &recorder{}
	e.Start(0, 10, 1<<20, FlowOpts{})
	e.Resolve()
	rate, cap := e.EdgeUpRate(0)
	if cap != tEdge || math.Abs(rate-tEdge) > 1 {
		t.Fatalf("EdgeUpRate(0) = %g/%g, want %g/%g", rate, cap, tEdge, tEdge)
	}
	rate, _ = e.EdgeDownRate(10)
	if math.Abs(rate-tEdge) > 1 {
		t.Fatalf("EdgeDownRate(10) = %g, want %g", rate, tEdge)
	}
	// Rates clear once the flow drains.
	e.Advance(sim.Second)
	e.Resolve()
	if rate, _ := e.EdgeUpRate(0); rate != 0 {
		t.Fatalf("EdgeUpRate after drain = %g, want 0", rate)
	}
}

func TestCompletionOrdering(t *testing.T) {
	e := newTestEngine(t)
	rec := &recorder{}
	e.Hooks = rec
	// Same path, different sizes: the smaller flow must complete first
	// even though it was started second.
	e.Start(0, 10, 8<<20, FlowOpts{Arg: "big"})
	e.Start(0, 10, 1<<20, FlowOpts{Arg: "small"})
	e.Advance(sim.Second)
	if len(rec.delivered) != 2 {
		t.Fatalf("delivered %d, want 2", len(rec.delivered))
	}
	if rec.delivered[0].arg != "small" || rec.delivered[1].arg != "big" {
		t.Fatalf("order = %v,%v want small,big", rec.delivered[0].arg, rec.delivered[1].arg)
	}
	if rec.delivered[0].at >= rec.delivered[1].at {
		t.Fatalf("times not increasing: %v >= %v", rec.delivered[0].at, rec.delivered[1].at)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []cbRec {
		e := newTestEngine(t)
		rec := &recorder{}
		e.Hooks = rec
		nodes := e.topo.Nodes()
		for i := 0; i < 24; i++ {
			src := topology.NodeID((i * 7) % nodes)
			dst := topology.NodeID((i*13 + 3) % nodes)
			if src == dst {
				dst = (dst + 1) % topology.NodeID(nodes)
			}
			e.Start(src, dst, int64(1<<16)*int64(i+1), FlowOpts{ExtraLatency: sim.Microsecond, Arg: i})
			e.Advance(e.Now() + 10*sim.Microsecond)
		}
		e.Advance(sim.Second)
		return rec.delivered
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 24 {
		t.Fatalf("runs delivered %d vs %d, want 24", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSteadyStateAllocFree(t *testing.T) {
	e := newTestEngine(t)
	e.Hooks = &recorder{}
	nodes := e.topo.Nodes()
	// Warm up: grow scratch, free lists, path cache, callback heap.
	warm := func(rounds int) {
		for i := 0; i < rounds; i++ {
			src := topology.NodeID((i * 7) % nodes)
			dst := topology.NodeID((i*13 + 3) % nodes)
			if src == dst {
				dst = (dst + 1) % topology.NodeID(nodes)
			}
			e.Start(src, dst, 1<<18, FlowOpts{})
			e.Advance(e.Now() + 50*sim.Microsecond)
		}
		e.Advance(e.Now() + sim.Millisecond)
		e.TakeProgress()
	}
	warm(64)
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		warm(8)
		i++
	})
	if allocs > 0 {
		t.Fatalf("steady-state epochs allocate: %.1f allocs/round", allocs)
	}
}

func TestPathChoiceSpreads(t *testing.T) {
	// A 2x2 HyperX has two minimal paths between diagonal switches (one
	// per dimension order); repeated flows across the diagonal must
	// spread over both rather than pile onto one.
	topo := topology.MustBuild(topology.HyperXConfig{Dims: []int{2, 2}, NodesPerSwitch: 2})
	e := NewEngine(topo, Caps{EdgeBits: tEdge, FabricBits: tFabric})
	e.Hooks = &recorder{}
	src := topology.NodeID(0) // on switch (0,0)
	for i := 0; i < 8; i++ {
		e.Start(src, topology.NodeID(e.topo.Nodes()-1-i%2), 1<<20, FlowOpts{})
	}
	e.Resolve()
	// Count distinct fabric first-hop segments in use from src's switch.
	sw := e.topo.SwitchOf(src)
	used := 0
	for slot := e.topo.SlotBase(sw); slot < e.topo.SlotBase(sw+1); slot++ {
		if e.flowsOn(int32(slot)) > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("all flows took one first hop; want spreading (used=%d)", used)
	}
}

// eagerCaps rebuilds the capacity table an engine once filled eagerly
// from topo.Links(): EdgeBits on both edge segments of every node, and
// FabricBits added once per link on both directed slots of every
// switch-to-switch link.
func eagerCaps(e *Engine) []float64 {
	caps := make([]float64, len(e.segIdx))
	for _, lk := range e.topo.Links() {
		switch lk.Kind {
		case topology.EdgeLink:
			caps[e.edgeUp+int32(lk.Node)] = e.caps.EdgeBits
			caps[e.edgeDn+int32(lk.Node)] = e.caps.EdgeBits
		case topology.LocalLink, topology.GlobalLink:
			caps[e.topo.Slot(lk.A, lk.B)] += e.caps.FabricBits
			caps[e.topo.Slot(lk.B, lk.A)] += e.caps.FabricBits
		}
	}
	return caps
}

// checkCaps asserts every slot's and node's rate accessor reports the
// eager capacity, and zero rate where no record exists.
func checkCaps(t *testing.T, e *Engine, want []float64) {
	t.Helper()
	nodes := e.topo.Nodes()
	for id := range want {
		var rate, cap float64
		switch {
		case int32(id) < e.edgeUp:
			rate, cap = e.SegmentRate(id)
		case int32(id) < e.edgeDn:
			rate, cap = e.EdgeUpRate(topology.NodeID(id - int(e.edgeUp)))
		default:
			rate, cap = e.EdgeDownRate(topology.NodeID(id - int(e.edgeDn)))
		}
		if cap != want[id] {
			t.Fatalf("segment %d (of %d slots, %d nodes): capacity %g, eager table %g",
				id, e.edgeUp, nodes, cap, want[id])
		}
		if e.segIdx[id] == 0 && rate != 0 {
			t.Fatalf("untouched segment %d reports rate %g", id, rate)
		}
	}
}

// TestSegmentRecordsOnFirstCrossing pins the lazy segment table on the
// three backends, one Dragonfly with parallel global links: a fresh engine
// holds no records, a set of Starts creates records for exactly the
// distinct segments their paths cross, and every segment's capacity —
// record or not — equals the eager per-link sum.
func TestSegmentRecordsOnFirstCrossing(t *testing.T) {
	topos := map[string]topology.Topology{
		"dragonfly": topology.MustBuild(topology.Config{
			Groups: 3, SwitchesPerGroup: 1, NodesPerSwitch: 4, GlobalPerPair: 2,
		}),
		"fattree": topology.MustBuild(topology.FatTreeConfig{
			Pods: 2, EdgePerPod: 2, AggPerPod: 2, CorePerAgg: 2, NodesPerEdge: 2,
		}),
		"hyperx": topology.MustBuild(topology.HyperXConfig{Dims: []int{3, 2}, NodesPerSwitch: 2}),
	}
	for name, topo := range topos {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(topo, Caps{EdgeBits: tEdge, FabricBits: tFabric})
			e.Hooks = &recorder{}
			if len(e.segs) != 0 {
				t.Fatalf("fresh engine holds %d segment records", len(e.segs))
			}
			want := eagerCaps(e)
			checkCaps(t, e, want)
			if name == "dragonfly" {
				pooled := false
				for slot := int32(0); slot < e.edgeUp; slot++ {
					pooled = pooled || want[slot] == 2*tFabric
				}
				if !pooled {
					t.Fatal("no slot pools two parallel links")
				}
			}

			nodes := topo.Nodes()
			for i := 0; i < nodes; i += 3 {
				e.Start(topology.NodeID(i), topology.NodeID((i*5+1)%nodes), 1<<20, FlowOpts{})
			}
			// Map records back to segment ids; every record must be crossed
			// by some flow, and every flow's path must be edge up, fabric
			// slots, edge down.
			id := make([]int32, len(e.segs))
			for s, k := range e.segIdx {
				if k > 0 {
					id[k-1] = int32(s)
				}
			}
			crossed := map[int32]bool{}
			for _, f := range e.active {
				for i, k := range f.segs {
					s := id[k]
					switch {
					case i == 0 && s != e.edgeUp+int32(f.src):
						t.Fatalf("flow %d->%d starts on segment %d, not its edge up", f.src, f.dst, s)
					case i == len(f.segs)-1 && s != e.edgeDn+int32(f.dst):
						t.Fatalf("flow %d->%d ends on segment %d, not its edge down", f.src, f.dst, s)
					case i > 0 && i < len(f.segs)-1 && s >= e.edgeUp:
						t.Fatalf("flow %d->%d crosses edge segment %d mid-path", f.src, f.dst, s)
					}
					crossed[s] = true
				}
			}
			if len(crossed) != len(e.segs) {
				t.Fatalf("%d segment records for %d distinct crossed segments", len(e.segs), len(crossed))
			}
			e.Resolve()
			checkCaps(t, e, want)
		})
	}
}
