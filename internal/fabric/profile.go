// Package fabric is the packet-level discrete-event simulator at the heart
// of this reproduction. It assembles any topology.Topology backend
// (Dragonfly, fat-tree, HyperX) of Rosetta-style switches and RoCE NICs
// into a running network with:
//
//   - finite input buffers and credit-based link-level flow control (so
//     congestion trees and HOL blocking emerge naturally, as they do on
//     Aries under incast);
//   - virtual output queuing at every egress port with per-traffic-class
//     DRR scheduling (internal/qos);
//   - adaptive routing over up to four minimal and non-minimal paths chosen
//     at the source switch from request-queue depth estimates (§II-C);
//   - endpoint congestion control in the Slingshot style: the switch owning
//     a congested endpoint port identifies contributing sources and applies
//     stiff, fast per-pair back-pressure (§II-D), or ECN-style marking, or
//     nothing at all (the Aries baseline);
//   - an eager/rendezvous message protocol and per-message host overheads
//     calibrated to the paper's quiet-system measurements (Figs. 2, 4, 5).
package fabric

import (
	"repro/internal/congestion"
	"repro/internal/ethernet"
	"repro/internal/qos"
	"repro/internal/rosetta"
	"repro/internal/routing"
	"repro/internal/sim"
)

// Profile is the hardware/algorithm personality of a simulated system.
type Profile struct {
	Name string

	// FabricBits is the switch-to-switch link bandwidth (bits/s/direction).
	FabricBits int64
	// EdgeBits is the NIC link bandwidth. The paper's Slingshot systems use
	// 100 Gb/s ConnectX-5 NICs (§I).
	EdgeBits int64
	// Taper scales fabric link bandwidth (Fig. 13/14 taper to 25%).
	Taper float64

	// InputBufferBytes is the per-input-port buffer backing link-level
	// credits. Exhausting it stalls the upstream sender.
	InputBufferBytes int64

	// CC is the endpoint congestion-control algorithm; the fabric builds
	// each NIC its own controller of this kind and reads the controllers'
	// Hooks to decide whether switches emit endpoint back-pressure and/or
	// mark ECN.
	CC congestion.Kind

	// Routing is the network's source-switch routing policy
	// (routing.SlingshotAdaptive{} for §II-C adaptive routing,
	// routing.MinimalOnly{} for the first minimal path).
	Routing routing.Policy
	// MinimalBias > 1 biases path costs towards minimal paths (§II-C).
	MinimalBias float64
	// RouteNoise randomizes path-cost estimates (0 = perfect information).
	// It models the staleness/coarseness of distributed congestion
	// estimates: Aries spreads traffic over non-minimal paths far more
	// aggressively than Slingshot, whose estimates ride every ack (§II-C).
	RouteNoise float64

	// FabricMode is the switch-to-switch Ethernet framing
	// (Slingshot-enhanced on Rosetta); edge links always speak edgeMode.
	FabricMode ethernet.Mode

	// HostGap is the per-message host/driver overhead; it serializes
	// message injection on a NIC and sets the small-message rate
	// (~0.85 us -> ~1.2 M msg/s, matching Fig. 4's 8 B bandwidth).
	HostGap sim.Time

	// SwitchJitter samples per-traversal latency from the Fig. 2
	// distribution; false uses the deterministic mean (for calibration
	// tests).
	SwitchJitter bool

	// FrameBER is the residual post-FEC frame error probability injected
	// on every link (0 for the deterministic experiments). With LLR
	// (§II-F) errors are retried at link level and only add latency;
	// without it the frame is lost and the NIC's end-to-end retry
	// recovers it after RetryTimeout.
	FrameBER float64
	// LLR enables link-level reliability on fabric links.
	LLR bool
	// RetryTimeout is the NIC end-to-end retransmission timeout.
	RetryTimeout sim.Time

	// QoS is the traffic-class configuration (nil means one best-effort
	// class).
	QoS *qos.Config
}

// Hardware constants every profile shares.
const (
	// edgeMode is the Ethernet framing on edge links: standard RoCE NICs
	// speak classic Ethernet.
	edgeMode = ethernet.Standard
	// nicLatency is the fixed tx/rx hardware latency per side.
	nicLatency = 300 * sim.Nanosecond
	// rendezvousThreshold: messages strictly larger use an RTS/CTS
	// handshake before data flows (unless SendOpts.NoRendezvous).
	rendezvousThreshold int64 = 16 * 1024
	// endpointThreshold is the egress-queue depth at an edge port beyond
	// which the switch emits per-source back-pressure (Slingshot CC).
	endpointThreshold int64 = 24 * 1024
	// ecnThreshold marks packets on any egress queue deeper than this
	// (ECN-like CC).
	ecnThreshold int64 = 64 * 1024
)

// SlingshotProfile models Malbec/Shandy: Rosetta switches, Slingshot
// congestion control, adaptive routing, RoCE NICs at 100 Gb/s.
func SlingshotProfile() Profile {
	return Profile{
		Name:             "slingshot",
		FabricBits:       200e9,
		EdgeBits:         100e9,
		Taper:            1,
		InputBufferBytes: rosetta.InputBufferBytes,
		CC:               congestion.Slingshot,
		Routing:          routing.SlingshotAdaptive{},
		MinimalBias:      2,
		RouteNoise:       0.1,
		FabricMode:       ethernet.Enhanced,
		HostGap:          850 * sim.Nanosecond,
		SwitchJitter:     true,
		FrameBER:         0,
		LLR:              true,
		RetryTimeout:     50 * sim.Microsecond,
		QoS:              nil,
	}
}

// AriesProfile models Crystal: the same Dragonfly routing ideas but slower
// links, shallower buffers and — decisively — no endpoint congestion
// control, so incast floods the fabric until credits exhaust (§III-A).
func AriesProfile() Profile {
	p := SlingshotProfile()
	p.Name = "aries"
	p.FabricBits = 42e9 // ~5.25 GB/s Aries fabric link
	p.EdgeBits = 82e9   // 81.6 Gb/s peak injection (§IV-A)
	p.InputBufferBytes = rosetta.AriesInputBufferBytes
	p.CC = congestion.None
	// Aries biases much less towards minimal paths and works from coarser
	// congestion information, spreading heavy flows across the whole
	// group (§IV-A; the mechanism that lets congestion trees reach
	// unrelated jobs).
	p.MinimalBias = 1.05
	p.RouteNoise = 0.6
	p.FabricMode = ethernet.Standard
	// Aries adaptive routing is similar (§I: "uses a similar routing
	// algorithm"); keep it on.
	return p
}

// FatTree100GProfile models the paper's comparison systems (§I, §III): a
// 100 Gb/s fat-tree cluster with standard RoCE NICs, classic Ethernet
// framing end to end, DCQCN-style (ECN-like) congestion control and
// ECMP-flavoured routing — equal-cost minimal paths chosen by load with
// noisy estimates, detours strongly discouraged. Callers pair it with a
// folded Clos (topology.FatTreeFor).
func FatTree100GProfile() Profile {
	p := SlingshotProfile()
	p.Name = "fattree-100g"
	p.FabricBits = 100e9
	p.EdgeBits = 100e9
	p.CC = congestion.ECNLike
	// ECMP hashes flows over the equal-cost ups without congestion
	// feedback: model it as minimal-only-ish spreading with coarse load
	// information.
	p.MinimalBias = 4
	p.RouteNoise = 0.3
	p.FabricMode = ethernet.Standard
	p.LLR = false // plain Ethernet links, no link-level retry
	return p
}

func (p *Profile) fabricBits() int64 {
	t := p.Taper
	if t <= 0 || t > 1 {
		t = 1
	}
	return int64(float64(p.FabricBits) * t)
}
