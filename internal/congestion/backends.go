package congestion

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// pairState is the per-destination window/pacing state every backend
// shares.
type pairState struct {
	window      int64
	outstanding int64
	paceGap     sim.Time
	nextSend    sim.Time
	lastSignal  sim.Time
	// ECN/delay: one cut per congestion window / RTT.
	lastCut sim.Time
	// Slingshot: one pacing escalation per interval.
	lastEscalate sim.Time
	// Delay: the pair's calibrated RTT setpoint (0 until first computed).
	target sim.Time
}

// base carries the state and mechanics common to every backend: the
// per-destination pair table, window admission, outstanding-byte
// accounting and pacing. Algorithms embed it and differ only in how
// OnAck/OnSignal move the window and pace gap.
//
// The pair table is a lazily-grown slice indexed by destination node ID
// (the PR-2 scheme the NIC queues use): one NIC talks to a bounded set of
// peers, rows allocate on first contact, and the steady-state lookup is a
// bounds check plus a load — no map on the CC spine.
type base struct {
	initWindow int64
	pairs      []*pairState
	stats      Stats
}

// InitialWindow returns the window every destination pair starts with.
func (c *base) InitialWindow() int64 { return c.initWindow }

// Stats exposes the reaction counters.
func (c *base) Stats() *Stats { return &c.stats }

//simlint:hotpath
func (c *base) pair(dst topology.NodeID) *pairState {
	if int(dst) >= len(c.pairs) {
		grown := make([]*pairState, dst+1) //simlint:allocok -- first contact with a new highest destination; steady state hits the fast path
		copy(grown, c.pairs)
		c.pairs = grown
	}
	ps := c.pairs[dst]
	if ps == nil {
		ps = &pairState{window: c.initWindow, lastSignal: -sim.Forever / 2, lastCut: -sim.Forever / 2} //simlint:allocok -- one-time per-destination state
		c.pairs[dst] = ps
	}
	return ps
}

// CanSend implements the shared window/pacing admission check.
//
//simlint:hotpath
func (c *base) CanSend(dst topology.NodeID, bytes int64, now sim.Time) (ok bool, retryAt sim.Time) {
	ps := c.pair(dst)
	if now < ps.nextSend {
		c.stats.TotalBlocks++
		return false, ps.nextSend
	}
	// Always allow at least one packet in flight, whatever the window, so
	// progress is never completely stopped (the hardware paces, it does not
	// halt).
	if ps.outstanding > 0 && ps.outstanding+bytes > ps.window {
		c.stats.TotalBlocks++
		return false, 0
	}
	return true, 0
}

// OnSend records an injection of bytes to dst.
//
//simlint:hotpath
func (c *base) OnSend(dst topology.NodeID, bytes int64, now sim.Time) {
	ps := c.pair(dst)
	ps.outstanding += bytes
	if ps.paceGap > 0 {
		ps.nextSend = now + ps.paceGap
	}
}

// ackSettle is the shared front half of every OnAck: it returns the pair
// with the outstanding-byte account already settled.
func (c *base) ackSettle(dst topology.NodeID, bytes int64) *pairState {
	ps := c.pair(dst)
	ps.outstanding -= bytes
	if ps.outstanding < 0 {
		ps.outstanding = 0
	}
	return ps
}

// Outstanding returns the in-flight bytes to dst.
func (c *base) Outstanding(dst topology.NodeID) int64 {
	if int(dst) < len(c.pairs) {
		if ps := c.pairs[dst]; ps != nil {
			return ps.outstanding
		}
	}
	return 0
}

// Window returns the current window for dst.
func (c *base) Window(dst topology.NodeID) int64 {
	return c.pair(dst).window
}

// PaceGap returns the current pacing delay for dst (tests/inspection).
func (c *base) PaceGap(dst topology.NodeID) sim.Time {
	return c.pair(dst).paceGap
}

// noCC is the Aries baseline: no endpoint congestion control at all.
type noCC struct{ base }

// Algorithm names the backend.
func (c *noCC) Algorithm() string { return None.String() }

// Hooks: no fabric-side detection needed.
func (c *noCC) Hooks() Hooks { return Hooks{} }

// OnAck only settles the outstanding-byte account.
//
//simlint:hotpath
func (c *noCC) OnAck(dst topology.NodeID, bytes int64, _ bool, _, _ sim.Time) {
	c.ackSettle(dst, bytes)
}

// OnSignal is ignored (an Aries NIC has no back-pressure channel).
func (c *noCC) OnSignal(topology.NodeID, float64, sim.Time) {}

// slingshot is the paper's hardware scheme: stiff, fast per-pair
// back-pressure with quick recovery (§II-D).
type slingshot struct{ base }

// Algorithm names the backend.
func (c *slingshot) Algorithm() string { return Slingshot.String() }

// Hooks: the switch owning the congested endpoint port emits per-source
// notifications.
func (c *slingshot) Hooks() Hooks { return Hooks{EndpointSignals: true} }

// OnAck recovers fast once the back-pressure stops.
//
//simlint:hotpath
func (c *slingshot) OnAck(dst topology.NodeID, bytes int64, _ bool, _, now sim.Time) {
	ps := c.ackSettle(dst, bytes)
	// Quiet period passed: fast additive recovery plus pacing decay.
	if now-ps.lastSignal > recoveryQuiet {
		ps.window += bytes
		if ps.window > InitialWindow {
			ps.window = InitialWindow
		}
		ps.paceGap /= 2
		if ps.paceGap < 100*sim.Nanosecond {
			ps.paceGap = 0
		}
	}
}

// OnSignal applies the stiff, fast response: collapse the window and
// escalate pacing multiplicatively while signals keep coming.
func (c *slingshot) OnSignal(dst topology.NodeID, severity float64, now sim.Time) {
	ps := c.pair(dst)
	ps.lastSignal = now
	c.stats.TotalSignals++
	// Stiff and fast: collapse the window...
	ps.window = minWindow
	// ...and escalate pacing multiplicatively while signals keep coming.
	// Escalation is rate-limited (a burst of notifications from one queue
	// sweep counts once).
	const escalateEvery = 2 * sim.Microsecond
	switch {
	case ps.paceGap == 0:
		ps.paceGap = sim.Time(float64(2*sim.Microsecond) * severity)
		if ps.paceGap < 200*sim.Nanosecond {
			ps.paceGap = 200 * sim.Nanosecond
		}
		ps.lastEscalate = now
	case now-ps.lastEscalate >= escalateEvery:
		ps.paceGap *= 2
		ps.lastEscalate = now
	}
	if ps.paceGap > maxPaceGap {
		ps.paceGap = maxPaceGap
	}
	if ps.nextSend < now+ps.paceGap {
		ps.nextSend = now + ps.paceGap
	}
}

// ecnLike is the DCQCN-flavoured marking scheme: multiplicative decrease
// on marked acks, slow additive recovery — the long end-to-end reaction
// path that makes classical ECN fragile under bursty incast.
type ecnLike struct{ base }

// Algorithm names the backend.
func (c *ecnLike) Algorithm() string { return ECNLike.String() }

// Hooks: switches mark packets crossing deep egress queues.
func (c *ecnLike) Hooks() Hooks { return Hooks{ECNMarks: true} }

// OnAck cuts on marks and recovers slowly otherwise.
//
//simlint:hotpath
func (c *ecnLike) OnAck(dst topology.NodeID, bytes int64, marked bool, _, now sim.Time) {
	ps := c.ackSettle(dst, bytes)
	if marked {
		// At most one multiplicative cut per ~RTT-scale interval; the
		// long reaction path is what makes classical ECN fragile under
		// bursty incast.
		if now-ps.lastCut > recoveryQuiet {
			ps.lastCut = now
			c.stats.TotalSignals++
			ps.window = int64(float64(ps.window) * ecnCutFactor)
			if ps.window < minWindow {
				ps.window = minWindow
			}
		}
		ps.lastSignal = now
	} else if now-ps.lastSignal > 4*recoveryQuiet {
		// Slow additive recovery, a fraction of the acked bytes.
		ps.window += bytes / 8
		if ps.window > InitialWindow {
			ps.window = InitialWindow
		}
	}
}

// OnSignal is ignored (ECN has no direct back-pressure channel).
func (c *ecnLike) OnSignal(topology.NodeID, float64, sim.Time) {}

// delayBased is the Swift/TIMELY-style controller: the congestion signal
// is the ack round-trip time itself. RTT above the target reads as
// standing queue and cuts the window in proportion to the overshoot; RTT
// at or below target grows it additively. It needs no switch support at
// all — not even ECN marking.
//
// The target is per destination: TargetRTT is the floor, raised to the
// fabric-calibrated quiet RTT of the pair's path when a base-RTT oracle
// is installed (see TargetCalibrator) — Swift's topology-aware
// base-delay term.
type delayBased struct {
	base
	baseRTT func(topology.NodeID) sim.Time
}

// CalibrateTarget installs the fabric's quiet-RTT oracle; per-pair
// setpoints are derived lazily from it on first use.
func (c *delayBased) CalibrateTarget(base func(topology.NodeID) sim.Time) {
	c.baseRTT = base
}

// targetFor returns the pair's setpoint, computing it on first use:
// TargetRTT, raised to the oracle's quiet full-window RTT on paths where
// the topology alone exceeds that floor.
func (c *delayBased) targetFor(ps *pairState, dst topology.NodeID) sim.Time {
	if ps.target == 0 {
		ps.target = TargetRTT
		if c.baseRTT != nil {
			if t := c.baseRTT(dst); t > ps.target {
				ps.target = t
			}
		}
	}
	return ps.target
}

// Algorithm names the backend.
func (c *delayBased) Algorithm() string { return Delay.String() }

// Hooks: none — the RTT rides the acks the NIC already processes.
func (c *delayBased) Hooks() Hooks { return Hooks{} }

// OnAck compares the sample against the target RTT.
//
//simlint:hotpath
func (c *delayBased) OnAck(dst topology.NodeID, bytes int64, _ bool, rtt, now sim.Time) {
	ps := c.ackSettle(dst, bytes)
	if rtt <= 0 {
		return // no sample (e.g. a test driving acks directly)
	}
	target := c.targetFor(ps, dst)
	if rtt > target {
		// Multiplicative decrease proportional to the overshoot, at most
		// once per ~RTT-scale interval (a whole window's acks report the
		// same standing queue).
		if now-ps.lastCut > recoveryQuiet {
			ps.lastCut = now
			c.stats.TotalSignals++
			cut := 1 - delayBeta*float64(rtt-target)/float64(rtt)
			if cut < delayMaxCut {
				cut = delayMaxCut
			}
			ps.window = int64(float64(ps.window) * cut)
			if ps.window < minWindow {
				ps.window = minWindow
			}
		}
		ps.lastSignal = now
	} else if now-ps.lastSignal > recoveryQuiet {
		// On-target RTT: additive recovery, a fraction of the acked
		// bytes per ack.
		ps.window += bytes / 4
		if ps.window > InitialWindow {
			ps.window = InitialWindow
		}
	}
}

// OnSignal is ignored (the delay signal rides the acks).
func (c *delayBased) OnSignal(topology.NodeID, float64, sim.Time) {}
