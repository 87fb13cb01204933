package fabric

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestParseFidelity(t *testing.T) {
	cases := []struct {
		in   string
		want Fidelity
		err  bool
	}{
		{"", FidelityPacket, false},
		{"packet", FidelityPacket, false},
		{"flow", FidelityFlow, false},
		{"hybrid", FidelityHybrid, false},
		{"fluid", 0, true},
		{"Packet", 0, true},
	}
	for _, c := range cases {
		got, err := ParseFidelity(c.in)
		if (err != nil) != c.err || (err == nil && got != c.want) {
			t.Errorf("ParseFidelity(%q) = %v, %v", c.in, got, err)
		}
	}
	for i, name := range FidelityNames() {
		if Fidelity(i).String() != name {
			t.Errorf("Fidelity(%d).String() = %q, want %q", i, Fidelity(i).String(), name)
		}
	}
}

// flowNet builds a quiet dragonfly at the requested fidelity.
func flowNet(t testing.TB, f Fidelity) *Network {
	t.Helper()
	n := quietNet(t, noJitter(SlingshotProfile()))
	n.SetFidelity(f)
	return n
}

func TestFlowFidelityCompletionCalibrated(t *testing.T) {
	// One bulk transfer on a quiet network: the fluid completion time
	// must track the packet engine within a tight bound (this is the
	// single-message end of the calibration story; harness has the
	// loaded-scenario half).
	for _, bytes := range []int64{128 << 10, 1 << 20, 8 << 20} {
		packet := sendAndWait(t, flowNet(t, FidelityPacket), 0, 63, bytes)
		fluid := sendAndWait(t, flowNet(t, FidelityFlow), 0, 63, bytes)
		rel := float64(fluid-packet) / float64(packet)
		if rel < 0 {
			rel = -rel
		}
		t.Logf("%8d B: packet %v fluid %v (err %.1f%%)", bytes, packet, fluid, 100*rel)
		if rel > 0.15 {
			t.Errorf("%d B: fluid completion %v vs packet %v, |err| %.1f%% > 15%%",
				bytes, fluid, packet, 100*rel)
		}
	}
}

func TestFlowFidelityFairSharing(t *testing.T) {
	// Two fluid transfers into one destination share its edge link: both
	// must take about twice as long as a lone transfer.
	n := flowNet(t, FidelityFlow)
	const bytes = 4 << 20
	var done [2]sim.Time
	n.Send(0, 63, bytes, SendOpts{OnDelivered: func(at sim.Time) { done[0] = at }})
	n.Send(4, 63, bytes, SendOpts{OnDelivered: func(at sim.Time) { done[1] = at }})
	n.Eng.RunWhile(func() bool { return done[0] == 0 || done[1] == 0 })
	lone := sendAndWait(t, flowNet(t, FidelityFlow), 0, 63, bytes)
	for i, d := range done {
		ratio := float64(d) / float64(lone)
		if ratio < 1.7 || ratio > 2.3 {
			t.Errorf("flow %d: shared completion %v vs lone %v (ratio %.2f, want ~2)", i, d, lone, ratio)
		}
	}
}

func TestHybridClassification(t *testing.T) {
	n := flowNet(t, FidelityHybrid)
	cb := SendOpts{}
	// Untagged traffic stays packet-level regardless of size.
	n.Send(0, 63, 1<<20, cb)
	if n.FlowsStarted() != 0 {
		t.Fatalf("untagged send took the fluid path")
	}
	// Small bulk stays packet-level.
	n.Send(0, 63, 4<<10, SendOpts{Bulk: true})
	if n.FlowsStarted() != 0 {
		t.Fatalf("small bulk send took the fluid path")
	}
	// Real bulk goes fluid.
	n.Send(0, 63, 1<<20, SendOpts{Bulk: true})
	if n.FlowsStarted() != 1 {
		t.Fatalf("bulk send stayed on the packet path")
	}
	// Fan-in guard: beyond hybridFanIn concurrent fluid flows into one
	// node, further bulk sends drop to the packet engine.
	for i := 1; i < 8; i++ {
		n.Send(topology.NodeID(4*i), 63, 1<<20, SendOpts{Bulk: true})
	}
	if got := n.FlowsStarted(); got != hybridFanIn {
		t.Fatalf("fluid admissions = %d, want fan-in cap %d", got, hybridFanIn)
	}
	// Self-sends stay local even at flow fidelity.
	nf := flowNet(t, FidelityFlow)
	nf.Send(0, 0, 1<<20, cb)
	if nf.FlowsStarted() != 0 {
		t.Fatalf("self send took the fluid path")
	}
}

func TestHybridBackgroundLoadVisible(t *testing.T) {
	n := flowNet(t, FidelityHybrid)
	// Saturate a destination's edge with fluid bulk, then check the
	// packet path's load views see the background.
	dst := topology.NodeID(63)
	for i := 0; i < hybridFanIn; i++ {
		n.Send(topology.NodeID(4*i), dst, 32<<20, SendOpts{Bulk: true})
	}
	n.RunFor(100 * sim.Microsecond)
	if got := n.QueuedAtEdge(dst); got == 0 {
		t.Errorf("QueuedAtEdge(%d) = 0 under fluid saturation; background load invisible", dst)
	}
	// The edge segment is saturated, so its equivalent should read deep.
	if got := n.QueuedAtEdge(dst); got < ecnThreshold {
		t.Errorf("QueuedAtEdge(%d) = %d, want >= ECN threshold %d under saturation",
			dst, got, ecnThreshold)
	}
	// A quiet node reads zero.
	if got := n.QueuedAtEdge(1); got != 0 {
		t.Errorf("QueuedAtEdge(quiet) = %d, want 0", got)
	}
}

func TestHybridDeterministicAcrossWorkers(t *testing.T) {
	// Same hybrid scenario, same domain decomposition, different worker
	// counts: results must be byte-identical (the PR 8 rule extends to
	// fluid background publication because it happens only on the control
	// engine between epochs).
	run := func(domains int) string {
		topo := topology.MustNew(topology.Config{
			Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 2,
		})
		n := NewSharded(topo, noJitter(SlingshotProfile()), 1, domains)
		n.SetFidelity(FidelityHybrid)
		var log string
		record := func(tag string) func(sim.Time) {
			return func(at sim.Time) { log += fmt.Sprintf("%s@%d\n", tag, at) }
		}
		// Bulk fluid aggressors plus packet-level victims sharing links.
		for i := 0; i < 4; i++ {
			n.Send(topology.NodeID(i*16), 63, 8<<20, SendOpts{Bulk: true, OnDelivered: record(fmt.Sprintf("bulk%d", i))})
		}
		for i := 0; i < 4; i++ {
			n.Send(topology.NodeID(1+i*16), topology.NodeID(62-i), 64<<10, SendOpts{OnDelivered: record(fmt.Sprintf("vic%d", i))})
		}
		n.RunFor(5 * sim.Millisecond)
		return log
	}
	a, b := run(1), run(4)
	if a != b {
		t.Fatalf("hybrid replay diverged:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Fatal("no completions recorded")
	}
}

func TestShardedFlowDeterministicAcrossWorkers(t *testing.T) {
	// Flow fidelity on a sharded fabric: every fluid flow, intra-group or
	// cross-group, runs on the one control-side engine, which advances
	// only between epochs. Any worker budget must replay byte-identically,
	// and so must the classic engine (domains 0): with no packet traffic
	// the shards stay idle and the control engine sees the classic
	// timeline. -race runs of this test sweep the epoch phases around it.
	run := func(domains int) string {
		topo := topology.MustNew(topology.Config{
			Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 2,
		})
		n := NewSharded(topo, noJitter(SlingshotProfile()), 1, domains)
		n.SetFidelity(FidelityFlow)
		var log string
		record := func(tag string) func(sim.Time) {
			return func(at sim.Time) { log += fmt.Sprintf("%s@%d\n", tag, at) }
		}
		for i := 0; i < 4; i++ {
			// Intra-group: node i*16 and i*16+5 sit in group i.
			n.Send(topology.NodeID(i*16), topology.NodeID(i*16+5), 4<<20,
				SendOpts{OnDelivered: record(fmt.Sprintf("loc%d", i))})
			// Cross-group into a common hotspot, sharing edge segments
			// with the intra-group flows above.
			n.Send(topology.NodeID(2+i*16), 63, 2<<20,
				SendOpts{OnDelivered: record(fmt.Sprintf("x%d", i))})
		}
		n.RunFor(5 * sim.Millisecond)
		if got := n.FlowsCompleted(); got != 8 {
			t.Fatalf("domains=%d: completed %d flows, want 8", domains, got)
		}
		return log
	}
	want := run(1)
	for _, d := range []int{0, 2, 4, 8} {
		if got := run(d); got != want {
			t.Fatalf("flow replay diverged at domains=%d:\n%s\nvs\n%s", d, got, want)
		}
	}
	if want == "" {
		t.Fatal("no completions recorded")
	}
}

// TestFlowWakeNoLeak bounds the control engine's event count when fluid
// Sends come from control events other than the fluid tick (MPI
// schedules, harness probes). Each such Send may pull the pending tick
// earlier; the superseded tick must be cancelled, not left to fire and
// re-arm a tick chain of its own, or the event count grows with every
// Send instead of with the flows' completions.
func TestFlowWakeNoLeak(t *testing.T) {
	const (
		flows = 400
		gap   = 40 * sim.Microsecond
	)
	for _, f := range []Fidelity{FidelityFlow, FidelityHybrid} {
		t.Run(f.String(), func(t *testing.T) {
			topo := topology.MustNew(topology.Config{
				Groups: 2, SwitchesPerGroup: 2, NodesPerSwitch: 8, GlobalPerPair: 2,
			})
			n := New(topo, noJitter(SlingshotProfile()), 1)
			n.SetFidelity(f)
			nodes := topo.Nodes()
			for i := 0; i < flows; i++ {
				src := topology.NodeID(i % nodes)
				dst := topology.NodeID((i + nodes/2 + 1) % nodes)
				n.Eng.ScheduleFunc(sim.Time(i)*gap, func() {
					n.Send(src, dst, 1<<20, SendOpts{Bulk: true})
				})
			}
			n.Run()
			if got := n.FlowsCompleted(); got != flows {
				t.Fatalf("completed %d fluid flows, want %d", got, flows)
			}
			steps := n.Eng.Steps()
			limit := int64(10 * flows)
			if f == FidelityHybrid {
				// Background publication ticks every flowBGInterval
				// while flows are active.
				limit = 2 * int64(n.Now()/sim.Microsecond)
			}
			t.Logf("%d events over %v", steps, n.Now())
			if steps > limit {
				t.Fatalf("%d control events for %d flows over %v, want <= %d", steps, flows, n.Now(), limit)
			}
		})
	}
}
