package fabric

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

func quietNet(t testing.TB, prof Profile) *Network {
	t.Helper()
	topo := topology.MustNew(topology.Config{
		Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 2,
	})
	return New(topo, prof, 1)
}

func noJitter(p Profile) Profile {
	p.SwitchJitter = false
	return p
}

// sendAndWait runs one message to completion and returns its one-way time.
func sendAndWait(t testing.TB, n *Network, src, dst topology.NodeID, bytes int64) sim.Time {
	t.Helper()
	start := n.Now()
	var done sim.Time
	n.Send(src, dst, bytes, SendOpts{OnDelivered: func(at sim.Time) { done = at }})
	n.Eng.RunWhile(func() bool { return done == 0 })
	if done == 0 {
		t.Fatal("message never delivered")
	}
	return done - start
}

func TestQuietLatencySameSwitch(t *testing.T) {
	n := quietNet(t, noJitter(SlingshotProfile()))
	// 8 B between two NICs on the same switch: host gap + NIC latencies +
	// one switch traversal; should land in the 1-2.5 us range the paper's
	// Fig. 4 shows (minus MPI software, which lives in internal/mpi).
	lat := sendAndWait(t, n, 0, 1, 8)
	if lat < 1*sim.Microsecond || lat > 3*sim.Microsecond {
		t.Errorf("same-switch 8B latency = %v", lat)
	}
}

func TestQuietLatencyDistanceOrdering(t *testing.T) {
	n := quietNet(t, noJitter(SlingshotProfile()))
	// Node 0: switch 0, group 0. Node 5: switch 1, group 0. Node 63:
	// switch 15, group 3.
	same := sendAndWait(t, n, 0, 1, 8)
	oneHop := sendAndWait(t, n, 0, 5, 8)
	cross := sendAndWait(t, n, 0, 63, 8)
	if !(same < oneHop && oneHop < cross) {
		t.Errorf("latency ordering broken: same=%v group=%v cross=%v", same, oneHop, cross)
	}
	// The worst-case allocation penalty at 8 B is bounded (~40% in Fig. 4;
	// our fabric-only numbers are a bit tighter).
	if float64(cross)/float64(same) > 1.9 {
		t.Errorf("distance penalty too large: %v vs %v", cross, same)
	}
	// Each extra switch adds roughly a traversal (350 ns) + cable.
	d1 := oneHop - same
	if d1 < 300*sim.Nanosecond || d1 > 600*sim.Nanosecond {
		t.Errorf("extra intra-group hop adds %v, want ~363ns", d1)
	}
}

func TestQuietLatencyLargeMessagesConverge(t *testing.T) {
	// Fig. 4: from 16 KiB up, the latency difference across distances
	// shrinks to ~10% (serialization dominates). Our fabric-only latency
	// lacks the paper's host-side buffer management costs (their 128 KiB
	// one-way is ~24 us against our ~14 us), so the same absolute distance
	// penalty is a slightly larger fraction here — we accept <= 1.16 and
	// assert the trend against the 8 B spread (~1.4-1.9x).
	n := quietNet(t, noJitter(SlingshotProfile()))
	same := sendAndWait(t, n, 0, 1, 128*1024)
	cross := sendAndWait(t, n, 2, 62, 128*1024)
	if ratio := float64(cross) / float64(same); ratio > 1.16 {
		t.Errorf("128KiB distance ratio = %.3f, want <= 1.16", ratio)
	}
}

func TestStreamingBandwidthCalibration(t *testing.T) {
	// Reproduces the Fig. 4 bandwidth ladder on a quiet system: a stream
	// of messages of each size, bandwidth = bytes/time. Targets (paper):
	// 8 B ~0.08 Gb/s, 1 KiB ~9.5, 128 KiB ~75, 4 MiB ~97.
	cases := []struct {
		size   int64
		lo, hi float64 // Gb/s
	}{
		{8, 0.05, 0.12},
		{1024, 7, 12},
		{128 * 1024, 60, 90},
		{4 * 1024 * 1024, 90, 99},
	}
	for _, c := range cases {
		n := quietNet(t, noJitter(SlingshotProfile()))
		const inflight = 8
		iters := 64
		if c.size >= 1024*1024 {
			iters = 16
		}
		done := 0
		var finish sim.Time
		var post func()
		posted := 0
		post = func() {
			if posted >= iters {
				return
			}
			posted++
			n.Send(0, 1, c.size, SendOpts{OnDelivered: func(at sim.Time) {
				done++
				finish = at
				post()
			}})
		}
		for i := 0; i < inflight && i < iters; i++ {
			post()
		}
		n.Eng.RunWhile(func() bool { return done < iters })
		gbps := float64(c.size*int64(iters)) * 8 / finish.Seconds() / 1e9
		if gbps < c.lo || gbps > c.hi {
			t.Errorf("size %d: %.2f Gb/s, want [%.2f, %.2f]", c.size, gbps, c.lo, c.hi)
		}
	}
}

func TestSelfSend(t *testing.T) {
	n := quietNet(t, SlingshotProfile())
	var delivered, acked bool
	n.Send(3, 3, 4096, SendOpts{
		OnDelivered: func(sim.Time) { delivered = true },
		OnAcked:     func(sim.Time) { acked = true },
	})
	n.Eng.Run()
	if !delivered || !acked {
		t.Error("self-send did not complete")
	}
}

func TestZeroByteMessage(t *testing.T) {
	n := quietNet(t, SlingshotProfile())
	var done bool
	n.Send(0, 17, 0, SendOpts{OnDelivered: func(sim.Time) { done = true }})
	n.Eng.Run()
	if !done {
		t.Error("zero-byte message not delivered")
	}
}

func TestOnAckedFires(t *testing.T) {
	n := quietNet(t, SlingshotProfile())
	var deliveredAt, ackedAt sim.Time
	n.Send(0, 20, 64*1024, SendOpts{
		OnDelivered: func(at sim.Time) { deliveredAt = at },
		OnAcked:     func(at sim.Time) { ackedAt = at },
	})
	n.Eng.Run()
	if deliveredAt == 0 || ackedAt == 0 {
		t.Fatal("callbacks missing")
	}
	if ackedAt <= deliveredAt {
		t.Error("ack completed before delivery")
	}
}

func TestRendezvousSlowerThanEager(t *testing.T) {
	// A message above the rendezvous threshold pays one extra round trip.
	n1 := quietNet(t, noJitter(SlingshotProfile()))
	lat1 := sendAndWait(t, n1, 0, 63, 64*1024)
	n2 := quietNet(t, noJitter(SlingshotProfile()))
	var done sim.Time
	n2.Send(0, 63, 64*1024, SendOpts{NoRendezvous: true, OnDelivered: func(at sim.Time) { done = at }})
	n2.Eng.RunWhile(func() bool { return done == 0 })
	if lat1 <= done {
		t.Errorf("rendezvous (%v) not slower than eager (%v)", lat1, done)
	}
}

func TestMessageOrderingPerPair(t *testing.T) {
	// Messages between one pair complete in submission order (FIFO per
	// destination queue).
	n := quietNet(t, SlingshotProfile())
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		n.Send(0, 9, 4096, SendOpts{OnDelivered: func(sim.Time) { order = append(order, i) }})
	}
	n.Eng.Run()
	if len(order) != 5 {
		t.Fatalf("delivered %d messages", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestConcurrentDestinationsProgress(t *testing.T) {
	// A NIC sending to many destinations round-robins; all complete.
	n := quietNet(t, SlingshotProfile())
	done := 0
	for d := 1; d < 32; d++ {
		n.Send(0, topology.NodeID(d), 8192, SendOpts{OnDelivered: func(sim.Time) { done++ }})
	}
	n.Eng.Run()
	if done != 31 {
		t.Errorf("completed %d/31", done)
	}
}

func TestPacketTapAndCounters(t *testing.T) {
	n := quietNet(t, SlingshotProfile())
	taps := 0
	n.Taps.OnPacketDelivered = func(p *Packet, at sim.Time) { taps++ }
	n.Send(0, 5, 10*4096, SendOpts{})
	n.Eng.Run()
	if taps != 10 {
		t.Errorf("tap fired %d times, want 10", taps)
	}
	if n.PacketsDelivered != 10 || n.BytesDelivered != 10*4096 {
		t.Errorf("counters: %d pkts %d bytes", n.PacketsDelivered, n.BytesDelivered)
	}
}

// The headline §II-D behaviour: an incast on Slingshot triggers per-pair
// back-pressure; the same incast on Aries floods buffers.
func TestIncastTriggersSlingshotCC(t *testing.T) {
	n := quietNet(t, SlingshotProfile())
	victimDst := topology.NodeID(0)
	done := 0
	senders := 0
	for s := 4; s < 40; s++ {
		senders++
		n.Send(topology.NodeID(s), victimDst, 128*1024, SendOpts{
			OnDelivered: func(sim.Time) { done++ }})
	}
	n.Eng.Run()
	if done != senders {
		t.Fatalf("delivered %d/%d", done, senders)
	}
	if n.Signals == 0 {
		t.Error("incast produced no congestion signals")
	}
	// At least one aggressor got paced.
	paced := false
	for s := 4; s < 40; s++ {
		if n.CC(topology.NodeID(s)).PaceGap(victimDst) > 0 ||
			n.CC(topology.NodeID(s)).Window(victimDst) < SlingshotProfile().CC.InitialWindow {
			paced = true
			break
		}
	}
	if !paced {
		t.Error("no aggressor was throttled")
	}
}

func TestIncastAriesNoSignals(t *testing.T) {
	n := quietNet(t, AriesProfile())
	done := 0
	for s := 4; s < 40; s++ {
		n.Send(topology.NodeID(s), 0, 128*1024, SendOpts{OnDelivered: func(sim.Time) { done++ }})
	}
	n.Eng.Run()
	if done != 36 {
		t.Fatalf("delivered %d/36", done)
	}
	if n.Signals != 0 {
		t.Error("Aries profile emitted Slingshot signals")
	}
}

// Victim protection: during a heavy incast to one endpoint, a bystander
// flow between unrelated endpoints on the *same switch as the incast
// destination* stays fast on Slingshot and degrades badly on Aries.
func TestVictimProtection(t *testing.T) {
	victimLatency := func(prof Profile) sim.Time {
		topo := topology.MustNew(topology.Config{
			Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 2,
		})
		n := New(topo, prof, 7)
		// Aggressors: 30 nodes incast 128 KiB repeatedly into node 0.
		stop := false
		var blast func(src topology.NodeID)
		blast = func(src topology.NodeID) {
			n.Send(src, 0, 128*1024, SendOpts{OnDelivered: func(sim.Time) {
				if !stop {
					blast(src)
				}
			}})
		}
		for s := 16; s < 46; s++ {
			blast(topology.NodeID(s))
		}
		// Let congestion build.
		n.RunFor(400 * sim.Microsecond)
		// Victim: node 17 (a switch shared with an aggressor source) to
		// node 1 (on the incast destination's switch): every victim path
		// ends on the switch whose input buffers the congestion tree
		// exhausts on Aries, so victim packets queue behind the flood.
		var sum sim.Time
		const reps = 20
		for i := 0; i < reps; i++ {
			start := n.Now()
			var done sim.Time
			n.Send(17, 1, 8, SendOpts{OnDelivered: func(at sim.Time) { done = at }})
			n.Eng.RunWhile(func() bool { return done == 0 })
			sum += done - start
		}
		stop = true
		return sum / reps
	}
	slingshot := victimLatency(noJitter(SlingshotProfile()))
	aries := victimLatency(noJitter(AriesProfile()))
	// The victim's isolated latency is ~2 us. Slingshot keeps it close;
	// Aries lets the congestion tree hit it hard.
	if slingshot > 8*sim.Microsecond {
		t.Errorf("slingshot victim latency %v, want < 8us", slingshot)
	}
	if aries < 2*slingshot {
		t.Errorf("aries victim (%v) should be >> slingshot victim (%v)", aries, slingshot)
	}
}

func TestAdaptiveSpreadsLoad(t *testing.T) {
	// With adaptive routing, a hot minimal path diverts traffic to
	// alternates: total completion of simultaneous cross-group flows
	// should beat minimal-only routing.
	run := func(adaptive bool) sim.Time {
		prof := noJitter(SlingshotProfile())
		if !adaptive {
			prof.Routing = routing.NewMinimalOnly
		}
		topo := topology.MustNew(topology.Config{
			Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 1,
		})
		n := New(topo, prof, 3)
		done := 0
		total := 0
		// Many flows from group 0 to group 1 stress the single minimal
		// global link per switch pair.
		for s := 0; s < 16; s++ {
			total++
			n.Send(topology.NodeID(s), topology.NodeID(16+s), 256*1024, SendOpts{
				OnDelivered: func(sim.Time) { done++ }})
		}
		n.Eng.RunWhile(func() bool { return done < total })
		return n.Now()
	}
	adaptive := run(true)
	static := run(false)
	if adaptive > static {
		t.Errorf("adaptive (%v) slower than minimal-only (%v)", adaptive, static)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (sim.Time, int64) {
		n := quietNet(t, SlingshotProfile())
		done := 0
		for s := 4; s < 20; s++ {
			n.Send(topology.NodeID(s), 0, 64*1024, SendOpts{OnDelivered: func(sim.Time) { done++ }})
		}
		n.Eng.Run()
		return n.Now(), n.Eng.Steps()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Errorf("replay diverged: %v/%d vs %v/%d", t1, s1, t2, s2)
	}
}

func TestNoOverdraftsInNormalOperation(t *testing.T) {
	n := quietNet(t, SlingshotProfile())
	done := 0
	for s := 0; s < 32; s++ {
		n.Send(topology.NodeID(s), topology.NodeID((s+7)%64), 32*1024,
			SendOpts{OnDelivered: func(sim.Time) { done++ }})
	}
	n.Eng.Run()
	if n.Overdrafts != 0 {
		t.Errorf("deadlock watchdog fired %d times in normal traffic", n.Overdrafts)
	}
}

func TestTaperSlowsFabric(t *testing.T) {
	fast := noJitter(SlingshotProfile())
	slow := fast
	slow.Taper = 0.25
	n1 := quietNet(t, fast)
	n2 := quietNet(t, slow)
	// Cross-group transfer exercises fabric links.
	l1 := sendAndWait(t, n1, 0, 63, 1024*1024)
	l2 := sendAndWait(t, n2, 0, 63, 1024*1024)
	if l2 <= l1 {
		t.Errorf("taper had no effect: %v vs %v", l1, l2)
	}
}

func TestSendPanicsOutsideTopology(t *testing.T) {
	n := quietNet(t, SlingshotProfile())
	defer func() {
		if recover() == nil {
			t.Error("Send outside topology did not panic")
		}
	}()
	n.Send(0, topology.NodeID(10000), 8, SendOpts{})
}

// TestRetryAtOrBeforeNowStillWakes guards the NIC pump against the pacing
// edge where a retry deadline is not strictly in the future: the wakeup
// must be scheduled anyway (at now+1), not silently dropped.
func TestRetryAtOrBeforeNowStillWakes(t *testing.T) {
	n := quietNet(t, noJitter(SlingshotProfile()))
	nic := n.nics[0]
	m := n.Send(0, 1, 8, SendOpts{})
	// Drop the pending host-ready wakeup, simulating a consumed pacing
	// deadline, and advance past host readiness with no fabric activity
	// left to re-pump the NIC.
	if nic.pumpEv == nil {
		t.Fatal("no pump scheduled after submit")
	}
	n.Eng.Cancel(nic.pumpEv)
	nic.pumpEv = nil
	n.Eng.RunUntil(m.hostReady + sim.Microsecond)

	now := n.Eng.Now()
	nic.scheduleRetry(now, now) // deadline exactly at now: must still wake
	n.Eng.Run()
	if !m.Done() {
		t.Fatal("message stalled: retry deadline at <= now was dropped")
	}
	nic.scheduleRetry(n.Eng.Now(), 0) // zero deadline: nothing to schedule
	if nic.pumpEv != nil && !nic.pumpEv.Cancelled() {
		t.Error("zero retry deadline scheduled a pump")
	}
}

// TestPacketFreeListRecycles pins the packet free-list contract: every
// data/ctrl packet that terminates at a NIC returns to the network's
// free-list, and subsequent injections drain it instead of allocating.
func TestPacketFreeListRecycles(t *testing.T) {
	n := quietNet(t, noJitter(SlingshotProfile()))
	sendAndWait(t, n, 0, 1, 8)
	recycled := len(n.doms[0].pktFree)
	if recycled == 0 {
		t.Fatal("no packets recycled after delivery")
	}
	// Steady state: the same transfer reuses the freed structs and ends
	// with the free-list at the same depth.
	sendAndWait(t, n, 0, 1, 8)
	if got := len(n.doms[0].pktFree); got != recycled {
		t.Errorf("free-list depth = %d after identical transfer, want %d", got, recycled)
	}
}
