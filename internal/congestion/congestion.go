// Package congestion implements the endpoint congestion-control algorithms
// compared in the paper (§II-D). Controller is an interface: one instance
// lives in each NIC and regulates, per destination endpoint, how many
// bytes may be outstanding and how fast packets may be injected. Four
// backends ship:
//
//   - Slingshot: hardware tracking of every in-flight packet between every
//     pair of endpoints, with stiff, fast back-pressure applied only to the
//     sources contributing to endpoint congestion. Contributing pairs are
//     throttled hard (window collapse plus pacing); everyone else keeps
//     full speed — this is the mechanism behind the paper's headline result
//     that victims on Slingshot see at most ~1.3x slowdown where Aries
//     victims see up to ~93x.
//
//   - ECN-like: a DCQCN-flavoured marking scheme whose control loop runs
//     end-to-end (mark at switch -> echo at receiver -> rate cut at
//     sender), representative of the "fragile, hard to tune" classical
//     schemes the paper contrasts with (§II-D).
//
//   - Delay-based: a Swift/TIMELY-style controller driven purely off the
//     end-to-end ack round-trip times the NIC already observes — no switch
//     support needed at all. RTT above target cuts the window in
//     proportion to the overshoot; RTT at or below target recovers
//     additively.
//
//   - None: no endpoint congestion control, the Aries baseline behaviour.
//     Sources flood until link-level credits exhaust, forming congestion
//     trees.
//
// Contracts every implementation must honour:
//
//   - Per-pair state: reactions to congestion on one destination must not
//     throttle traffic to any other destination.
//   - Liveness: CanSend must admit a packet whenever nothing is
//     outstanding to that destination, whatever the window — the hardware
//     paces, it does not halt.
//   - Determinism: controllers draw no randomness; identical call
//     sequences produce identical decisions (the simulator replays).
package congestion

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Kind selects the algorithm.
type Kind int

const (
	None Kind = iota
	Slingshot
	ECNLike
	Delay
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Slingshot:
		return "slingshot"
	case ECNLike:
		return "ecn"
	case Delay:
		return "delay"
	}
	return "unknown"
}

// Calibrated tuning every controller of a kind runs with. InitialWindow
// and TargetRTT are exported for the fabric's calibration tests.
const (
	// InitialWindow is the per-destination-pair outstanding-byte budget
	// on an uncongested path; ~64 KiB covers the 100 Gb/s x ~3 us edge
	// BDP several times over.
	InitialWindow int64 = 64 * 1024
	// TargetRTT is the delay-based controller's setpoint: ack RTTs above
	// it read as queueing and cut the window. A quiet small-message
	// round trip is ~3 us; 8 us of RTT reads as several packets of
	// standing queue at 100 Gb/s.
	TargetRTT = 8 * sim.Microsecond

	// unlimitedWindow is None's window, effectively unlimited: an Aries
	// NIC keeps injecting as long as link-level credits let it.
	unlimitedWindow int64 = 1 << 40
	// minWindow is the floor the window collapses to under back-pressure
	// (one packet).
	minWindow int64 = 4 * 1024
	// maxPaceGap bounds the injection pacing delay per pair.
	maxPaceGap = 500 * sim.Microsecond
	// recoveryQuiet is how long a pair must go without congestion
	// signals before its window starts recovering.
	recoveryQuiet = 10 * sim.Microsecond
	// ecnCutFactor is the multiplicative decrease applied per marked
	// round-trip in ECN mode.
	ecnCutFactor = 0.5
	// delayBeta scales the delay-based multiplicative decrease: the cut
	// factor is 1 - delayBeta * (rtt-target)/rtt, floored at
	// delayMaxCut.
	delayBeta = 0.8
	// delayMaxCut floors the per-RTT cut factor of the delay-based
	// controller (0.3 means the window loses at most 70% per cut).
	delayMaxCut = 0.3
)

// Hooks declares the fabric-side detection an algorithm needs: the switch
// machinery consults them instead of hard-coding per-kind behaviour.
type Hooks struct {
	// EndpointSignals: the switch owning a congested endpoint port
	// identifies contributing sources and sends them per-pair
	// back-pressure notifications (Slingshot, §II-D).
	EndpointSignals bool
	// ECNMarks: switches mark packets crossing egress queues deeper than
	// the fabric's ECN threshold; receivers echo the mark on the ack.
	ECNMarks bool
}

// Stats counts a controller's visible reactions.
type Stats struct {
	// TotalSignals counts congestion reactions (back-pressure
	// notifications honoured, marked-ack cuts, or delay cuts).
	TotalSignals int64
	// TotalBlocks counts injection attempts deferred by window or pacing.
	TotalBlocks int64
}

// Controller regulates one NIC's injection, per destination pair.
type Controller interface {
	// Algorithm names the backend ("none", "slingshot", "ecn", "delay").
	Algorithm() string
	// InitialWindow returns the window every destination pair starts
	// with (InitialWindow, or an effectively unlimited one for None).
	InitialWindow() int64
	// Hooks reports the fabric-side detection this algorithm needs.
	Hooks() Hooks
	// CanSend reports whether a packet of the given size may be injected
	// to dst at time now. When it may not, retryAt is the pacing deadline
	// to try again, or zero if the sender must simply wait for an
	// acknowledgement to free window space.
	CanSend(dst topology.NodeID, bytes int64, now sim.Time) (ok bool, retryAt sim.Time)
	// OnSend records an injection of bytes to dst.
	OnSend(dst topology.NodeID, bytes int64, now sim.Time)
	// OnAck records an end-to-end acknowledgement for bytes delivered to
	// dst. marked reports ECN marking observed along the path; rtt is the
	// packet's send-to-ack round-trip time (0 when unknown).
	OnAck(dst topology.NodeID, bytes int64, marked bool, rtt, now sim.Time)
	// OnSignal delivers a direct back-pressure notification from the
	// fabric for traffic to dst (the switch owning the congested endpoint
	// port identifies the contributing sources and throttles exactly
	// those, §II-D). severity in (0,1] scales the response. Algorithms
	// without that channel ignore it.
	OnSignal(dst topology.NodeID, severity float64, now sim.Time)
	// Outstanding returns the in-flight bytes to dst.
	Outstanding(dst topology.NodeID) int64
	// Window returns the current window for dst.
	Window(dst topology.NodeID) int64
	// PaceGap returns the current pacing delay for dst.
	PaceGap(dst topology.NodeID) sim.Time
	// Stats exposes the reaction counters (tests/inspection).
	Stats() *Stats
}

// Builder constructs a fresh Controller. Each NIC gets its own instance,
// so controllers never share state across endpoints (or across networks
// built in parallel).
type Builder func() Controller

// TargetCalibrator is implemented by controllers whose setpoint should
// track the topology rather than a fixed constant. The fabric calls
// CalibrateTarget once per NIC at build time with a quiet-RTT oracle:
// base(dst) estimates the uncongested full-window ack round-trip from
// that NIC to dst. The delay-based backend uses it to raise its
// per-destination target above the TargetRTT floor where the quiet
// path alone exceeds it — on a 1024-node fat-tree the cross-spine RTT
// passes 8 µs before any queue forms, and an uncalibrated controller
// reads the topology itself as congestion and over-throttles.
type TargetCalibrator interface {
	CalibrateTarget(base func(dst topology.NodeID) sim.Time)
}

// NewController returns a controller of the given kind.
func NewController(kind Kind) Controller {
	b := base{initWindow: InitialWindow}
	switch kind {
	case Slingshot:
		return &slingshot{base: b}
	case ECNLike:
		return &ecnLike{base: b}
	case Delay:
		return &delayBased{base: b}
	default:
		return &noCC{base: base{initWindow: unlimitedWindow}}
	}
}

// BuilderFor returns a Builder producing controllers of the given kind.
func BuilderFor(kind Kind) Builder {
	return func() Controller { return NewController(kind) }
}

// kinds is the single list of selectable algorithms ByName and Names
// derive from; a new backend is added here (plus Kind.String and
// NewController's dispatch).
var kinds = [...]Kind{None, Slingshot, ECNLike, Delay}

// ByName returns a Builder for an algorithm name.
func ByName(name string) (Builder, error) {
	for _, k := range kinds {
		if k.String() == name {
			return BuilderFor(k), nil
		}
	}
	return nil, fmt.Errorf("congestion: unknown algorithm %q (have %v)", name, Names())
}

// Names lists the selectable algorithm names, sorted.
func Names() []string {
	out := make([]string, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, k.String())
	}
	sort.Strings(out)
	return out
}
