package fabric

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// §II-F reliability features: FEC+LLR on fabric links, NIC end-to-end
// retry, and lane degrade.

func TestLLRRecoversAllFrames(t *testing.T) {
	prof := noJitter(SlingshotProfile())
	prof.FrameBER = 0.02
	prof.LLR = true
	n := quietNet(t, prof)
	done := 0
	const msgs = 50
	for i := 0; i < msgs; i++ {
		n.Send(topology.NodeID(i%8), topology.NodeID(56+i%8), 64*1024,
			SendOpts{OnDelivered: func(sim.Time) { done++ }})
	}
	n.Eng.Run()
	if done != msgs {
		t.Fatalf("delivered %d/%d with LLR", done, msgs)
	}
	if n.LLRRetries == 0 {
		t.Error("no LLR retries at 2% frame error rate")
	}
	if n.FramesLost != 0 || n.E2ERetries != 0 {
		t.Errorf("LLR mode lost frames: lost=%d e2e=%d", n.FramesLost, n.E2ERetries)
	}
	// No golden runs with FrameBER > 0, so the per-port frame-error
	// streams (one RNG split per port, in port-table order) are pinned
	// here by value.
	if n.LLRRetries != 85 || n.Now() != 63688*sim.Nanosecond {
		t.Errorf("lossy run drifted: LLRRetries=%d at %v, want 85 at 63688ns", n.LLRRetries, n.Now())
	}
}

func TestEndToEndRetryWithoutLLR(t *testing.T) {
	prof := noJitter(SlingshotProfile())
	prof.FrameBER = 0.02
	prof.LLR = false
	prof.RetryTimeout = 20 * sim.Microsecond
	n := quietNet(t, prof)
	done := 0
	const msgs = 50
	for i := 0; i < msgs; i++ {
		n.Send(topology.NodeID(i%8), topology.NodeID(56+i%8), 64*1024,
			SendOpts{OnDelivered: func(sim.Time) { done++ }})
	}
	n.Eng.Run()
	if done != msgs {
		t.Fatalf("delivered %d/%d despite end-to-end retry", done, msgs)
	}
	if n.FramesLost == 0 || n.E2ERetries == 0 {
		t.Errorf("expected losses + retries: lost=%d e2e=%d", n.FramesLost, n.E2ERetries)
	}
	if n.E2ERetries < n.FramesLost {
		t.Errorf("every lost frame needs a retry: lost=%d e2e=%d", n.FramesLost, n.E2ERetries)
	}
	// Pinned by value, like TestLLRRecoversAllFrames.
	if n.LLRRetries != 0 || n.FramesLost != 82 || n.E2ERetries != 82 || n.Now() != 111671680*sim.Picosecond {
		t.Errorf("lossy run drifted: LLRRetries=%d FramesLost=%d E2ERetries=%d at %v, want 0, 82, 82 at 111671680ps",
			n.LLRRetries, n.FramesLost, n.E2ERetries, n.Now())
	}
}

func TestErrorsAddLatency(t *testing.T) {
	clean := noJitter(SlingshotProfile())
	n1 := quietNet(t, clean)
	l1 := sendAndWait(t, n1, 0, 63, 1024*1024)

	noisy := clean
	noisy.FrameBER = 0.05
	n2 := quietNet(t, noisy)
	l2 := sendAndWait(t, n2, 0, 63, 1024*1024)
	if l2 <= l1 {
		t.Errorf("5%% frame errors did not slow transfer: %v vs %v", l1, l2)
	}
}

func TestLaneDegradeSlowsLink(t *testing.T) {
	prof := noJitter(SlingshotProfile())
	n := quietNet(t, prof)
	// Degrade every link out of switch 0 to 1 lane (3 degrades).
	for _, nb := range n.Topo.Neighbors(0) {
		for i := 0; i < 3; i++ {
			if !n.DegradeLinkLanes(0, nb) {
				t.Fatal("link died before 3 degrades")
			}
		}
	}
	slow := sendAndWait(t, n, 0, 63, 1024*1024)

	n2 := quietNet(t, prof)
	fast := sendAndWait(t, n2, 0, 63, 1024*1024)
	if slow <= fast {
		t.Errorf("lane degrade had no effect: %v vs %v", fast, slow)
	}
	// Restore brings it back.
	for _, nb := range n.Topo.Neighbors(0) {
		n.RestoreLinkLanes(0, nb)
	}
	restored := sendAndWait(t, n, 0, 62, 1024*1024)
	if restored >= slow {
		t.Errorf("restore had no effect: %v vs %v", slow, restored)
	}
}

func TestDeterministicReplayWithErrors(t *testing.T) {
	run := func() (sim.Time, int64, int64) {
		prof := noJitter(SlingshotProfile())
		prof.FrameBER = 0.01
		n := quietNet(t, prof)
		done := 0
		for i := 0; i < 20; i++ {
			n.Send(topology.NodeID(i), topology.NodeID(40+i), 128*1024,
				SendOpts{OnDelivered: func(sim.Time) { done++ }})
		}
		n.Eng.Run()
		return n.Now(), n.LLRRetries, n.Eng.Steps()
	}
	t1, r1, s1 := run()
	t2, r2, s2 := run()
	if t1 != t2 || r1 != r2 || s1 != s2 {
		t.Errorf("replay diverged: (%v,%d,%d) vs (%v,%d,%d)", t1, r1, s1, t2, r2, s2)
	}
}

// TestDuplicateDeliveryCountsOnce guards NIC.deliver against duplicate
// data packets: with FrameBER > 0 and end-to-end retries, a late original
// plus its retransmit may both arrive, and only the first may bump the
// message/network counters or fire OnDelivered/OnAcked.
func TestDuplicateDeliveryCountsOnce(t *testing.T) {
	prof := noJitter(SlingshotProfile())
	n := quietNet(t, prof)
	delivered, acked := 0, 0
	m := n.Send(0, 1, 8, SendOpts{
		OnDelivered: func(sim.Time) { delivered++ },
		OnAcked:     func(sim.Time) { acked++ },
	})
	n.Eng.Run()
	if delivered != 1 || acked != 1 {
		t.Fatalf("baseline delivery: delivered=%d acked=%d", delivered, acked)
	}
	pkts, bytes := n.PacketsDelivered, n.BytesDelivered

	// Forge the late duplicate of seq 0 arriving at the destination NIC.
	dup := &Packet{Msg: m, Seq: 0, Payload: 8}
	n.nics[1].deliver(dup)
	n.Eng.Run()
	if delivered != 1 || acked != 1 {
		t.Errorf("duplicate double-fired callbacks: delivered=%d acked=%d", delivered, acked)
	}
	if n.PacketsDelivered != pkts || n.BytesDelivered != bytes {
		t.Errorf("duplicate inflated counters: packets %d->%d bytes %d->%d",
			pkts, n.PacketsDelivered, bytes, n.BytesDelivered)
	}
	if m.delivered != m.numPackets {
		t.Errorf("message delivered count corrupted: %d/%d", m.delivered, m.numPackets)
	}
}

// TestLossyLinkNoDoubleCounting checks packet-count conservation under
// loss: every data packet counts exactly once even when end-to-end
// retries re-inject packets.
func TestLossyLinkNoDoubleCounting(t *testing.T) {
	prof := noJitter(SlingshotProfile())
	prof.FrameBER = 0.02
	prof.LLR = false
	prof.RetryTimeout = 20 * sim.Microsecond
	n := quietNet(t, prof)
	const msgs = 30
	perMsg := make([]int, msgs)
	var wantPkts int64
	for i := 0; i < msgs; i++ {
		i := i
		m := n.Send(topology.NodeID(i%8), topology.NodeID(56+i%8), 64*1024,
			SendOpts{OnDelivered: func(sim.Time) { perMsg[i]++ }})
		wantPkts += int64(m.numPackets)
	}
	n.Eng.Run()
	if n.E2ERetries == 0 {
		t.Fatal("test expects end-to-end retries at 2% loss")
	}
	for i, c := range perMsg {
		if c != 1 {
			t.Errorf("message %d OnDelivered fired %d times", i, c)
		}
	}
	if n.PacketsDelivered != wantPkts {
		t.Errorf("PacketsDelivered = %d, want exactly %d", n.PacketsDelivered, wantPkts)
	}
}

// linkPorts exposes the parallel egress ports a->b to the lane tests.
func linkPorts(n *Network, a, b topology.SwitchID) []*outPort {
	return n.switches[a].portsTo(b)
}

// TestDegradeLinkLanesCountsBothDirections: the usable-lanes verdict must
// OR both directions — a link whose a->b lanes are gone but whose b->a
// lanes survive is still (partially) usable, and vice versa.
func TestDegradeLinkLanesCountsBothDirections(t *testing.T) {
	n := quietNet(t, noJitter(SlingshotProfile()))
	nb := n.Topo.Neighbors(0)[0]
	// Kill the 0->nb direction outright, leaving nb->0 at full width.
	for _, o := range linkPorts(n, 0, nb) {
		for o.phy.DegradeLane() {
		}
	}
	if !n.DegradeLinkLanes(0, nb) {
		t.Error("link with usable reverse-direction lanes reported dead")
	}
	// Exhaust the remaining nb->0 lanes (one was taken above).
	for i := 0; i < 2; i++ {
		if !n.DegradeLinkLanes(0, nb) {
			t.Fatalf("link died early at degrade %d", i)
		}
	}
	if n.DegradeLinkLanes(0, nb) {
		t.Error("fully degraded link still reported usable")
	}
	// Restore brings both directions back.
	n.RestoreLinkLanes(0, nb)
	if !n.DegradeLinkLanes(0, nb) {
		t.Error("restored link reported dead")
	}
}

// TestDegradeLinkLanesNonAdjacent: probing a pair of switches with no
// direct link must be a graceful no-op (false), not a panic — harnesses
// sweep arbitrary pairs when injecting failures.
func TestDegradeLinkLanesNonAdjacent(t *testing.T) {
	n := quietNet(t, noJitter(SlingshotProfile()))
	var pair [2]topology.SwitchID
	found := false
	for a := 0; a < n.Topo.Switches() && !found; a++ {
		for b := a + 1; b < n.Topo.Switches(); b++ {
			if n.Topo.NeighborIndex(topology.SwitchID(a), topology.SwitchID(b)) < 0 {
				pair = [2]topology.SwitchID{topology.SwitchID(a), topology.SwitchID(b)}
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("topology is fully connected")
	}
	if n.DegradeLinkLanes(pair[0], pair[1]) {
		t.Error("non-adjacent pair reported usable lanes")
	}
	n.RestoreLinkLanes(pair[0], pair[1]) // must not panic either
}

// TestFreePacketDropsReferences: recycled packets must not pin their last
// Message (completion closures) or Path while idle on the free-list.
func TestFreePacketDropsReferences(t *testing.T) {
	n := quietNet(t, noJitter(SlingshotProfile()))
	sendAndWait(t, n, 0, 1, 8)
	if len(n.doms[0].pktFree) == 0 {
		t.Fatal("no packets recycled")
	}
	for i, p := range n.doms[0].pktFree {
		if p.Msg != nil || p.Path != nil || p.inPort != nil {
			t.Fatalf("free-list entry %d retains references: %+v", i, p)
		}
	}
}
