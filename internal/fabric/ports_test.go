package fabric

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestFlowFidelityBuildsNoPorts: a classic flow-fidelity network runs its
// flows (and a loopback self-send, which stays off the fabric), answers
// CC(i) and NIC(i) for every node, and never builds its port plane.
func TestFlowFidelityBuildsNoPorts(t *testing.T) {
	n := quietNet(t, noJitter(SlingshotProfile()))
	n.SetFidelity(FidelityFlow)
	pairs := [][2]topology.NodeID{{0, 63}, {1, 5}, {2, 2}, {63, 0}, {17, 40}}
	done := 0
	for _, p := range pairs {
		n.Send(p[0], p[1], 1<<20, SendOpts{OnDelivered: func(sim.Time) { done++ }})
	}
	n.Run()
	if done != len(pairs) {
		t.Fatalf("delivered %d of %d messages", done, len(pairs))
	}
	if got := n.FlowsCompleted(); got != int64(len(pairs)-1) {
		t.Errorf("%d fluid flows completed, want %d", got, len(pairs)-1)
	}
	for i := 0; i < n.Topo.Nodes(); i++ {
		id := topology.NodeID(i)
		if nic := n.NIC(id); nic == nil || nic.ID != id {
			t.Fatalf("NIC(%d) = %v", id, nic)
		}
		if st := n.CC(id).Stats(); st.TotalSignals != 0 {
			t.Errorf("CC(%d) saw %d signals with no packet traffic", id, st.TotalSignals)
		}
	}
	if n.ports != nil {
		t.Fatal("flow-fidelity network built its port table")
	}
	if n.slotPorts != nil || n.edgePorts != nil {
		t.Fatal("flow-fidelity network built its port lists")
	}
	for _, nic := range n.nics {
		if nic.inj != nil {
			t.Fatalf("NIC %d has an injection port", nic.ID)
		}
	}
}

// lossyTrace is what a lossyRun observes: each message's delivery time,
// the final clock and the counters.
type lossyTrace struct {
	delivered [8]sim.Time
	end       sim.Time
	ctr       Counters
}

// lossyRun sends eight cross-group messages over links that lose frames,
// so the run depends on every port's frame-error stream, and runs them to
// completion.
func lossyRun(n *Network) lossyTrace {
	var tr lossyTrace
	for i := range tr.delivered {
		n.Send(topology.NodeID(i), topology.NodeID(63-i), 64<<10,
			SendOpts{OnDelivered: func(at sim.Time) { tr.delivered[i] = at }})
	}
	n.Run()
	tr.end, tr.ctr = n.Now(), n.Counters
	return tr
}

// TestPortPlaneOnFirstUse: each packet-path entry point, called first on
// a fresh classic network, builds the port plane and gives the same
// result, and leaves the same run behind, as on a network whose plane
// already exists. The lossy links make the run depend on each port's
// frame-error stream, which splits off the network's RNG when the plane
// is built.
func TestPortPlaneOnFirstUse(t *testing.T) {
	prof := noJitter(SlingshotProfile())
	prof.FrameBER = 0.01
	prof.LLR = false
	degradeSwitch0 := func(n *Network) any {
		var ok []bool
		for _, nb := range n.Topo.Neighbors(0) {
			ok = append(ok, n.DegradeLinkLanes(0, nb))
		}
		return ok
	}
	entries := []struct {
		name  string
		first func(n *Network) any
	}{
		{"Send", func(*Network) any { return nil }}, // lossyRun's first Send
		{"ChoosePath", func(n *Network) any {
			return append(topology.Path(nil), n.ChoosePath(0, 63, 1, 0)...)
		}},
		{"QueuedAtEdge", func(n *Network) any { return n.QueuedAtEdge(5) }},
		{"DegradeLinkLanes", degradeSwitch0},
		{"RestoreLinkLanes", func(n *Network) any {
			n.RestoreLinkLanes(0, n.Topo.Neighbors(0)[0])
			return nil
		}},
	}
	var base lossyTrace
	for i, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			lazy, built := quietNet(t, prof), quietNet(t, prof)
			if lazy.ports != nil {
				t.Fatal("classic network built its port plane at construction")
			}
			built.ensurePorts()
			if got, want := e.first(lazy), e.first(built); !reflect.DeepEqual(got, want) {
				t.Fatalf("first call returned %v, on a built plane %v", got, want)
			}
			if e.name != "Send" && lazy.ports == nil {
				t.Fatal("entry point did not build the port plane")
			}
			got, want := lossyRun(lazy), lossyRun(built)
			if got != want {
				t.Fatalf("run after a first %s differs:\n got %+v\nwant %+v", e.name, got, want)
			}
			if want.ctr.FramesLost == 0 {
				t.Fatal("no frame lost: the run does not exercise the ports' error streams")
			}
			if i == 0 {
				base = want
			} else if e.name == "DegradeLinkLanes" && want == base {
				t.Error("degrading switch 0's links did not change the run")
			}
		})
	}
}
