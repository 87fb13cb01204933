package congestion

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

const dst = topology.NodeID(7)

func TestKindString(t *testing.T) {
	if None.String() != "none" || Slingshot.String() != "slingshot" ||
		ECNLike.String() != "ecn" || Delay.String() != "delay" ||
		Kind(9).String() != "unknown" {
		t.Error("kind strings wrong")
	}
}

func TestAlgorithmAndHooks(t *testing.T) {
	cases := []struct {
		kind  Kind
		hooks Hooks
	}{
		{None, Hooks{}},
		{Slingshot, Hooks{EndpointSignals: true}},
		{ECNLike, Hooks{ECNMarks: true}},
		{Delay, Hooks{}},
	}
	for _, c := range cases {
		ctrl := NewController(c.kind)
		if ctrl.Algorithm() != c.kind.String() {
			t.Errorf("%v: Algorithm() = %q", c.kind, ctrl.Algorithm())
		}
		if ctrl.Hooks() != c.hooks {
			t.Errorf("%v: Hooks() = %+v, want %+v", c.kind, ctrl.Hooks(), c.hooks)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"none", "slingshot", "ecn", "delay"} {
		k, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if got := NewController(k).Algorithm(); got != name {
			t.Errorf("ByName(%q) builds %q", name, got)
		}
	}
	if _, err := ByName("tcp-reno"); err == nil {
		t.Error("ByName of unknown algorithm did not error")
	}
}

func TestNoneUnlimited(t *testing.T) {
	c := NewController(None)
	now := sim.Time(0)
	// Send far more than any reasonable window; None never blocks.
	for i := 0; i < 1000; i++ {
		ok, _ := c.CanSend(dst, 4096, now)
		if !ok {
			t.Fatalf("None blocked at packet %d", i)
		}
		c.OnSend(dst, 4096, now)
	}
	// Signals are ignored.
	c.OnSignal(dst, 1, now)
	if ok, _ := c.CanSend(dst, 4096, now); !ok {
		t.Error("None reacted to a signal")
	}
}

func TestWindowLimits(t *testing.T) {
	c := NewController(Slingshot)
	now := sim.Time(0)
	sentBytes := int64(0)
	for {
		ok, _ := c.CanSend(dst, 4096, now)
		if !ok {
			break
		}
		c.OnSend(dst, 4096, now)
		sentBytes += 4096
		if sentBytes > 10*InitialWindow {
			t.Fatal("window never closed")
		}
	}
	// Outstanding is within one packet of the initial window.
	if got := c.Outstanding(dst); got < InitialWindow-4096 || got > InitialWindow+4096 {
		t.Errorf("outstanding = %d, window %d", got, InitialWindow)
	}
	// Acks free space.
	c.OnAck(dst, 4096, false, 0, now)
	if ok, _ := c.CanSend(dst, 4096, now); !ok {
		t.Error("ack did not free window space")
	}
}

func TestAlwaysOnePacketInFlight(t *testing.T) {
	c := NewController(Slingshot)
	now := sim.Time(0)
	c.OnSignal(dst, 1, now) // collapse window to minWindow = 4096
	now += c.PaceGap(dst)
	// A packet bigger than the collapsed window must still be sendable
	// when nothing is outstanding.
	ok, _ := c.CanSend(dst, 8192, now)
	if !ok {
		t.Error("zero-outstanding send blocked by window")
	}
}

func TestSlingshotSignalCollapsesWindow(t *testing.T) {
	c := NewController(Slingshot)
	now := sim.Time(0)
	if c.Window(dst) != InitialWindow {
		t.Fatalf("initial window = %d", c.Window(dst))
	}
	c.OnSignal(dst, 1, now)
	if c.Window(dst) != minWindow {
		t.Errorf("window after signal = %d, want %d", c.Window(dst), minWindow)
	}
	if c.PaceGap(dst) == 0 {
		t.Error("no pacing after signal")
	}
	// Pacing blocks immediate sends.
	if ok, retry := c.CanSend(dst, 4096, now); ok || retry <= now {
		t.Errorf("pacing not enforced: ok=%v retry=%v", ok, retry)
	}
}

func TestSlingshotPacingEscalates(t *testing.T) {
	c := NewController(Slingshot)
	now := sim.Time(0)
	c.OnSignal(dst, 1, now)
	g1 := c.PaceGap(dst)
	// Bursts within the rate-limit window count once.
	c.OnSignal(dst, 1, now+sim.Microsecond)
	if c.PaceGap(dst) != g1 {
		t.Errorf("pacing escalated inside the rate-limit window")
	}
	c.OnSignal(dst, 1, now+3*sim.Microsecond)
	g2 := c.PaceGap(dst)
	if g2 <= g1 {
		t.Errorf("pacing did not escalate: %v -> %v", g1, g2)
	}
	// Capped.
	for i := 0; i < 40; i++ {
		c.OnSignal(dst, 1, now+sim.Time(3*i)*sim.Microsecond)
	}
	if c.PaceGap(dst) > maxPaceGap {
		t.Errorf("pace gap exceeded cap: %v", c.PaceGap(dst))
	}
}

func TestSlingshotRecovery(t *testing.T) {
	c := NewController(Slingshot)
	now := sim.Time(0)
	c.OnSignal(dst, 1, now)
	// Acks inside the quiet period do not recover.
	c.OnAck(dst, 4096, false, 0, now+sim.Microsecond)
	if c.Window(dst) != minWindow {
		t.Error("recovered during quiet period")
	}
	// After the quiet period, acks recover the window and relax pacing.
	later := now + recoveryQuiet + sim.Microsecond
	for i := 0; i < 100; i++ {
		c.OnAck(dst, 4096, false, 0, later+sim.Time(i)*sim.Microsecond)
	}
	if c.Window(dst) != InitialWindow {
		t.Errorf("window did not recover: %d", c.Window(dst))
	}
	if c.PaceGap(dst) != 0 {
		t.Errorf("pacing did not decay: %v", c.PaceGap(dst))
	}
}

func TestSlingshotPerPairIsolation(t *testing.T) {
	// The defining Slingshot property (§II-D): throttling one destination
	// pair leaves other pairs at full speed.
	c := NewController(Slingshot)
	other := topology.NodeID(9)
	now := sim.Time(0)
	c.OnSignal(dst, 1, now)
	if c.Window(dst) == c.Window(other) {
		t.Error("signal leaked to unrelated pair")
	}
	if ok, _ := c.CanSend(other, 4096, now); !ok {
		t.Error("unrelated pair blocked")
	}
}

func TestECNCutOnMarkedAck(t *testing.T) {
	c := NewController(ECNLike)
	now := sim.Time(0)
	w0 := c.Window(dst)
	c.OnAck(dst, 4096, true, 0, now)
	w1 := c.Window(dst)
	if w1 != int64(float64(w0)*ecnCutFactor) {
		t.Errorf("window after mark = %d, want %d", w1, int64(float64(w0)*ecnCutFactor))
	}
	// A second mark immediately after does not double-cut (once per RTT).
	c.OnAck(dst, 4096, true, 0, now+sim.Microsecond)
	if c.Window(dst) != w1 {
		t.Errorf("double cut within RTT: %d", c.Window(dst))
	}
	// Cuts bottom out at minWindow.
	for i := 0; i < 20; i++ {
		c.OnAck(dst, 4096, true, 0, now+sim.Time(i+1)*recoveryQuiet*2)
	}
	if c.Window(dst) != minWindow {
		t.Errorf("window floor = %d, want %d", c.Window(dst), minWindow)
	}
}

func TestECNSlowRecovery(t *testing.T) {
	c := NewController(ECNLike)
	now := sim.Time(0)
	c.OnAck(dst, 4096, true, 0, now)
	cut := c.Window(dst)
	// Recovery is slower than Slingshot's: after the same number of acks
	// in quiet, ECN regains only a fraction.
	later := now + 5*recoveryQuiet
	for i := 0; i < 10; i++ {
		c.OnAck(dst, 4096, false, 0, later+sim.Time(i)*sim.Microsecond)
	}
	if c.Window(dst) <= cut {
		t.Error("no recovery at all")
	}
	if c.Window(dst) >= InitialWindow {
		t.Error("ECN recovered implausibly fast")
	}
	// ECN ignores direct signals (it has no such channel).
	w := c.Window(dst)
	c.OnSignal(dst, 1, later)
	if c.Window(dst) != w {
		t.Error("ECN reacted to a direct signal")
	}
}

func TestDelayCutsOnHighRTT(t *testing.T) {
	c := NewController(Delay)
	now := sim.Time(0)
	w0 := c.Window(dst)
	// RTT at the target: no cut.
	c.OnAck(dst, 4096, false, TargetRTT, now)
	if c.Window(dst) < w0 {
		t.Error("on-target RTT cut the window")
	}
	// RTT well past the target: proportional multiplicative cut.
	now += recoveryQuiet + sim.Microsecond
	rtt := 2 * TargetRTT
	c.OnAck(dst, 4096, false, rtt, now)
	want := int64(float64(w0) * (1 - delayBeta*float64(rtt-TargetRTT)/float64(rtt)))
	if got := c.Window(dst); got != want {
		t.Errorf("window after 2x-target RTT = %d, want %d", got, want)
	}
	// A second high sample immediately after does not double-cut.
	w1 := c.Window(dst)
	c.OnAck(dst, 4096, false, rtt, now+sim.Microsecond)
	if c.Window(dst) != w1 {
		t.Error("double cut within the rate-limit interval")
	}
	// Extreme RTTs are floored at delayMaxCut per interval and bottom out
	// at minWindow.
	for i := 0; i < 30; i++ {
		c.OnAck(dst, 4096, false, 100*TargetRTT, now+sim.Time(i+1)*recoveryQuiet*2)
	}
	if c.Window(dst) != minWindow {
		t.Errorf("window floor = %d, want %d", c.Window(dst), minWindow)
	}
}

func TestDelayRecoversOnTargetRTT(t *testing.T) {
	c := NewController(Delay)
	now := sim.Time(0)
	c.OnAck(dst, 4096, false, 4*TargetRTT, now)
	cut := c.Window(dst)
	if cut >= InitialWindow {
		t.Fatal("high RTT did not cut")
	}
	// On-target samples after the quiet period recover additively.
	later := now + 2*recoveryQuiet
	for i := 0; i < 200; i++ {
		c.OnAck(dst, 4096, false, TargetRTT/2, later+sim.Time(i)*sim.Microsecond)
	}
	if c.Window(dst) <= cut {
		t.Error("no recovery from on-target RTTs")
	}
	if c.Window(dst) > InitialWindow {
		t.Error("recovery overshot the initial window")
	}
	// Zero RTT (no sample) neither cuts nor recovers.
	w := c.Window(dst)
	c.OnAck(dst, 4096, false, 0, later+300*sim.Microsecond)
	if c.Window(dst) != w {
		t.Error("sampleless ack moved the window")
	}
	// Delay ignores direct signals and needs no fabric hooks.
	c.OnSignal(dst, 1, later)
	if c.Window(dst) != w {
		t.Error("delay controller reacted to a direct signal")
	}
}

func TestDelayTargetCalibration(t *testing.T) {
	c := NewController(Delay)
	far := topology.NodeID(11)
	cal, ok := c.(TargetCalibrator)
	if !ok {
		t.Fatal("delay controller does not implement TargetCalibrator")
	}
	// Oracle: the far pair's quiet RTT is past the fixed floor, dst's is
	// below it.
	farBase := TargetRTT + 4*sim.Microsecond
	cal.CalibrateTarget(func(d topology.NodeID) sim.Time {
		if d == far {
			return farBase
		}
		return TargetRTT / 2
	})
	// A sample between floor and calibrated base is the topology speaking,
	// not a queue: no cut on the far pair.
	rtt := TargetRTT + 2*sim.Microsecond
	c.OnAck(far, 4096, false, rtt, 0)
	if c.Window(far) != InitialWindow || c.Stats().TotalSignals != 0 {
		t.Errorf("calibrated pair cut on a sub-base RTT: window %d, signals %d",
			c.Window(far), c.Stats().TotalSignals)
	}
	// The same sample on the short pair is real queueing: cut, and with
	// the overshoot measured against the floor (the oracle never lowers
	// the target below TargetRTT).
	c.OnAck(dst, 4096, false, rtt, 0)
	want := int64(float64(InitialWindow) * (1 - delayBeta*float64(rtt-TargetRTT)/float64(rtt)))
	if got := c.Window(dst); got != want {
		t.Errorf("short pair window = %d, want %d", got, want)
	}
	// Past the calibrated base the far pair cuts too — calibration raises
	// the setpoint, it does not disable the controller.
	now := 2 * recoveryQuiet
	c.OnAck(far, 4096, false, 2*farBase, now)
	if c.Window(far) >= InitialWindow {
		t.Error("far pair never cuts despite RTT past its calibrated base")
	}
	// An uncalibrated controller cuts the far pair on the sub-base sample:
	// the over-throttle the oracle exists to prevent.
	u := NewController(Delay)
	u.OnAck(far, 4096, false, rtt, 0)
	if u.Window(far) >= InitialWindow {
		// Expected: this is the misbehaviour. Guard the premise.
	} else if u.Stats().TotalSignals == 0 {
		t.Error("uncalibrated cut without counting a signal")
	}
	if u.Window(far) == InitialWindow {
		t.Error("uncalibrated controller did not cut on the sub-base RTT; the fixture lost its point")
	}
}

func TestDelayPerPairIsolation(t *testing.T) {
	c := NewController(Delay)
	other := topology.NodeID(9)
	c.OnAck(dst, 4096, false, 4*TargetRTT, 0)
	if c.Window(dst) >= c.Window(other) {
		t.Error("cut leaked to unrelated pair")
	}
}

func TestOutstandingNeverNegative(t *testing.T) {
	c := NewController(Slingshot)
	c.OnAck(dst, 4096, false, 0, 0) // ack with nothing outstanding
	if got := c.Outstanding(dst); got != 0 {
		t.Errorf("outstanding = %d", got)
	}
}

func TestStatsCountBlocksAndSignals(t *testing.T) {
	c := NewController(Slingshot)
	c.OnSignal(dst, 1, 0)
	if c.Stats().TotalSignals != 1 {
		t.Errorf("TotalSignals = %d", c.Stats().TotalSignals)
	}
	if ok, _ := c.CanSend(dst, 4096, 0); ok {
		t.Fatal("expected pacing block")
	}
	if c.Stats().TotalBlocks != 1 {
		t.Errorf("TotalBlocks = %d", c.Stats().TotalBlocks)
	}
}
