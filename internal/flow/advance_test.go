package flow

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
)

// standingEngine returns an engine on a 96-node Dragonfly carrying
// standing 1 GiB flows among groups 0 and 1 (nodes 0..63), solved, with
// the clock moved once so it stands at a past progress step. Group 2
// (nodes 64..95) is left idle for flows whose timing a test controls.
func standingEngine(t *testing.T, standing int) *Engine {
	t.Helper()
	topo := topology.MustBuild(topology.Config{
		Groups: 3, SwitchesPerGroup: 4, NodesPerSwitch: 8, GlobalPerPair: 1,
	})
	e := NewEngine(topo, Caps{EdgeBits: tEdge, FabricBits: tFabric})
	e.Hooks = &recorder{}
	for i := 0; i < standing; i++ {
		src := topology.NodeID(i % 64)
		dst := topology.NodeID((i*7 + 3) % 64)
		if src == dst {
			dst = (dst + 1) % 64
		}
		e.Start(src, dst, 1<<30, FlowOpts{})
	}
	e.Advance(sim.Microsecond)
	if e.Active() != standing {
		t.Fatalf("standing flows: %d active, want %d", e.Active(), standing)
	}
	return e
}

// TestAdvanceToPresentVisitsNoFlows pins the fabric's per-message pattern
// — Advance to the present, Start, NextWake — at one instant: each round
// folds in the previous Start's solve, and none may scan the standing
// flows, because none can move the fluid clock.
func TestAdvanceToPresentVisitsNoFlows(t *testing.T) {
	e := standingEngine(t, 240)
	before, solves := e.visits, e.Solves()
	const rounds = 32
	for k := 0; k < rounds; k++ {
		e.Advance(e.Now())
		e.Start(topology.NodeID(64+k%32), topology.NodeID(64+(k+5)%32), 1<<20, FlowOpts{})
		e.NextWake()
	}
	e.Advance(e.Now())
	if got := e.visits - before; got != 0 {
		t.Fatalf("%d same-instant Advance+Start rounds visited %d flows, want 0", rounds, got)
	}
	if got := e.Solves() - solves; got != rounds {
		t.Fatalf("%d same-instant Starts ran %d solves, want one each", rounds, got)
	}
}

// restarter restarts each finished burst flow from its FlowDelivered hook
// the way the fabric's sendFlow does: Advance to the present, then Start.
type restarter struct {
	recorder
	e *Engine
}

func (r *restarter) FlowDelivered(at sim.Time, arg any) {
	r.recorder.FlowDelivered(at, arg)
	src := arg.(topology.NodeID)
	r.e.Advance(r.e.Now())
	r.e.Start(src, src+1, 1<<30, FlowOpts{})
}

// TestCompletionBurstVisitsPerClockMove bounds the O(active) work of a
// burst of same-instant completions whose hooks each restart a flow, and
// of the NextWake that follows, as the fabric calls it: at most two
// passes over the active flows per clock move (the progress pass, plus
// one rescan of a stale earliest projection), and nothing per restart.
func TestCompletionBurstVisitsPerClockMove(t *testing.T) {
	const standing, burst = 240, 16
	e := standingEngine(t, standing)
	r := &restarter{e: e}
	e.Hooks = r
	// Same bytes on disjoint intra-switch edges: every burst flow runs at
	// the edge rate and drains at one instant.
	for j := 0; j < burst; j++ {
		src := topology.NodeID(64 + 2*j)
		if e.topo.SwitchOf(src) != e.topo.SwitchOf(src+1) {
			t.Fatalf("nodes %d and %d are on different switches", src, src+1)
		}
		e.Start(src, src+1, 1<<20, FlowOpts{Arg: src})
	}
	e.Resolve()
	wake := e.NextWake()
	active, before := e.Active(), e.visits
	e.Advance(wake)
	e.NextWake()
	if len(r.delivered) != burst {
		t.Fatalf("delivered %d burst flows, want %d", len(r.delivered), burst)
	}
	for _, d := range r.delivered {
		if d.at != wake {
			t.Fatalf("burst delivery at %v, want every one at %v", d.at, wake)
		}
	}
	if e.Active() != active {
		t.Fatalf("%d active after the restarts, want %d", e.Active(), active)
	}
	const moves = 1 // every delivery fired at wake, the one clock move
	if got, limit := e.visits-before, int64(2*active*moves); got > limit {
		t.Fatalf("burst of %d restarts visited %d flows, want at most %d (2 x %d active x %d move)",
			burst, got, limit, active, moves)
	}
}

// drainedStarter starts one empty flow from the first delivery hook.
type drainedStarter struct {
	recorder
	e       *Engine
	lat     sim.Time
	started sim.Time
}

func (d *drainedStarter) FlowDelivered(at sim.Time, arg any) {
	d.recorder.FlowDelivered(at, arg)
	if arg == "carrier" {
		d.e.Advance(d.e.Now())
		d.started = d.e.Now()
		d.e.Start(0, 10, 0, FlowOpts{ExtraLatency: d.lat, AckLatency: sim.Microsecond, Arg: "empty"})
	}
}

// TestDrainedStartRetires guards the flow that starts with nothing to
// send: no lap moves the clock on its account (its projected completion
// is the present), so Start must flag it for the retire pass, or Advance
// spins at one instant.
func TestDrainedStartRetires(t *testing.T) {
	e := newTestEngine(t)
	d := &drainedStarter{e: e, lat: 3 * sim.Microsecond}
	e.Hooks = d
	e.Start(0, 10, 1<<20, FlowOpts{Arg: "carrier"})
	done := make(chan struct{})
	go func() {
		e.Advance(sim.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Advance did not return: the drained flow was never retired")
	}
	if len(d.delivered) != 2 || d.delivered[1].arg != "empty" || len(d.acked) != 2 {
		t.Fatalf("delivered = %+v, acked = %+v, want carrier then empty", d.delivered, d.acked)
	}
	if got, want := d.delivered[1].at, d.started+d.lat; got != want {
		t.Fatalf("empty flow delivered at %v, want now + ExtraLatency = %v", got, want)
	}
	if got, want := d.acked[1].at, d.started+d.lat+sim.Microsecond; got != want {
		t.Fatalf("empty flow acked at %v, want %v", got, want)
	}
	if e.Active() != 0 || e.Now() != sim.Millisecond {
		t.Fatalf("active=%d now=%v after Advance, want 0 at %v", e.Active(), e.Now(), sim.Millisecond)
	}
}
