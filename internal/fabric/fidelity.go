package fabric

import (
	"fmt"

	"repro/internal/ethernet"
	"repro/internal/flow"
	"repro/internal/phy"
	"repro/internal/rosetta"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Fidelity selects how a Network moves bytes.
//
//   - FidelityPacket (default): every message is simulated packet by
//     packet through switch queues — the exact pre-existing engine; all
//     goldens are produced at this level.
//   - FidelityFlow: every message advances as a fluid flow at its max–min
//     fair-share rate (internal/flow). Orders of magnitude faster per
//     simulated byte; no queuing, CC, or per-packet routing effects.
//   - FidelityHybrid: flows are classified at injection. Bulk-tagged
//     steady transfers (aggressors, background alltoall) run flow-level;
//     everything else — untagged (victim) traffic, transfers into an
//     incast hotspot, and pairs whose congestion controller is actively
//     throttling — stays on the packet engine. Flow-level link
//     utilization is exposed to the packet path as background load, so
//     adaptive routing and congestion detection still see the bulk
//     traffic they share links with.
type Fidelity uint8

const (
	FidelityPacket Fidelity = iota
	FidelityFlow
	FidelityHybrid
)

// fidelityNames lists the accepted ParseFidelity spellings in order.
var fidelityNames = [...]string{"packet", "flow", "hybrid"}

// FidelityNames returns the accepted ParseFidelity spellings in order
// (a fresh slice; the backing table stays immutable).
func FidelityNames() []string { return append([]string(nil), fidelityNames[:]...) }

// ParseFidelity maps a CLI/option spelling to a Fidelity. The empty
// string is the packet default.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "", "packet":
		return FidelityPacket, nil
	case "flow":
		return FidelityFlow, nil
	case "hybrid":
		return FidelityHybrid, nil
	}
	return FidelityPacket, fmt.Errorf("unknown fidelity %q (want packet|flow|hybrid)", s)
}

func (f Fidelity) String() string {
	if int(f) < len(fidelityNames) {
		return fidelityNames[f]
	}
	return "invalid"
}

const (
	// hybridMinBytes is the smallest transfer worth fluid treatment:
	// below it, per-message latency constants dominate and the packet
	// engine is both cheap and exact.
	hybridMinBytes = 64 << 10
	// hybridFanIn drops transfers into a busy destination down to the
	// packet engine: once this many fluid flows already target a node,
	// the destination is an incast hotspot and queue dynamics (which the
	// fluid model has none of) decide its behaviour.
	hybridFanIn = 4
	// flowBGInterval is the cadence of background-load publication and
	// delivered-byte accounting while fluid flows are active.
	flowBGInterval = 1 * sim.Microsecond
	// bgMTU scales utilization into a queued-byte equivalent (one
	// max-size cell of standing queue per unit of rho/(1-rho)).
	bgMTU = 4096
	// bgMaxQueue caps the equivalent so a saturated segment reads as
	// deeply congested without going unbounded.
	bgMaxQueue = 128 << 10
)

// SetFidelity switches the network's fidelity mode. Call once, after
// construction and before any traffic; FidelityPacket is the default and
// needs no call. Flow and hybrid modes build the fluid engine over the
// same topology, with segment capacities derated by the Ethernet framing
// efficiency at the maximum cell size so fluid goodput matches what a
// packet stream saturating the link achieves.
func (n *Network) SetFidelity(f Fidelity) {
	n.fid = f
	if f == FidelityPacket {
		n.flowEng = nil
		n.flowBG, n.flowBGEdge = nil, nil
		return
	}
	prof := &n.Prof
	const cell = ethernet.MaxPayload
	caps := flow.Caps{
		EdgeBits:   float64(prof.EdgeBits) * ethernet.Efficiency(cell, edgeMode),
		FabricBits: float64(prof.fabricBits()) * ethernet.Efficiency(cell, prof.FabricMode),
	}
	n.flowEng = flow.NewEngine(n.Topo, caps)
	n.flowEng.Hooks = (*flowHooks)(n)

	// Background-load tables, one entry per link slot — the layout of the
	// sharded epoch snapshot and of the fluid engine's fabric segments —
	// plus one per node for the switch->node edge. Written only by
	// publishFlowBG on the control engine; read by routing and enqueue
	// thresholds.
	slots := n.linkSlots()
	n.flowBG = make([]int64, slots[len(n.switches)])
	n.flowBGEdge = make([]int64, n.Topo.Nodes())
	// Stamp each port's slot in the background tables so the per-packet
	// threshold checks are one slice read.
	for _, sw := range n.switches {
		for nb, ports := range sw.ports {
			for _, o := range ports {
				o.bgIdx = slots[sw.ID] + int32(nb)
			}
		}
		for _, o := range sw.edge {
			o.bgIdx = int32(o.peerNIC.ID)
		}
	}
	// Injection ports carry no background slot: the fluid engine's
	// edge-up usage limits fluid rates in the solver, but the node's own
	// packet injection queue must not double-count it.
	for _, nic := range n.nics {
		nic.inj.bgIdx = -1
	}
}

// Fidelity returns the mode set by SetFidelity.
func (n *Network) Fidelity() Fidelity { return n.fid }

// FlowsStarted / FlowsCompleted report how many transfers took the fluid
// path (hybrid classification visibility; tests and benchreport).
func (n *Network) FlowsStarted() int64   { return n.flowsStarted }
func (n *Network) FlowsCompleted() int64 { return n.flowsCompleted }

// flowEligible is the hybrid hand-off rule, evaluated at injection on
// the control side (Send never runs inside a shard epoch, so every read
// here is of quiesced state).
//
//simlint:hotpath
func (n *Network) flowEligible(src, dst topology.NodeID, bytes int64, opts *SendOpts) bool {
	if src == dst {
		return false // NIC-internal loopback, stays on the exact path
	}
	if n.fid == FidelityFlow {
		return true
	}
	// Hybrid: only bulk-tagged steady transfers of real size.
	if !opts.Bulk || bytes < hybridMinBytes {
		return false
	}
	// Incast hotspot: once hybridFanIn fluid flows already converge on
	// dst, further transfers contend in queues — packet territory.
	if n.flowEng.ActiveTo(dst) >= hybridFanIn {
		return false
	}
	// A pair the congestion controller is actively throttling is by
	// definition not in fluid steady state.
	cc := n.nics[src].cc
	if cc.Window(dst) < cc.InitialWindow() {
		return false
	}
	return true
}

// sendFlow admits one message to the fluid engine: the Message handle
// behaves as on the packet path (Done, callbacks), but no packets exist —
// per-packet taps never fire for fluid transfers.
//
//simlint:hotpath
func (n *Network) sendFlow(m *Message) *Message {
	lat, ack, extra := n.flowTimes(m)
	n.flowsStarted++
	// Bring the engine's fluid clock to the present before admitting the
	// flow, so the lazy solve folds in exactly at the submit time instead
	// of smearing the new flow's rate back to the last tick.
	n.flowEng.Advance(n.Eng.Now())
	n.flowEng.Start(m.Src, m.Dst, m.Bytes, flow.FlowOpts{
		ExtraBytes:   extra,
		ExtraLatency: lat,
		AckLatency:   ack,
		Arg:          m,
	})
	n.scheduleFlowWake()
	return m
}

// flowTimes derives the fluid calibration constants for one message from
// the profile and the quiet path shape: the latency added to the fluid
// completion (host/NIC/wire/switch traversal, plus the rendezvous
// handshake for large transfers), the reverse ack latency, and the
// bandwidth-equivalent byte charge of per-message sender gaps.
//
//simlint:hotpath
func (n *Network) flowTimes(m *Message) (lat, ackLat sim.Time, extraBytes int64) {
	prof := &n.Prof
	var path topology.Path
	switches := 1
	// The flow engine's keyed path cache, not the dense minPaths rows: a
	// million-endpoint flow-mode run would pay ~1.5 MB of row spine per
	// distinct source switch for paths the packet layer never routes.
	if s, d := n.Topo.SwitchOf(m.Src), n.Topo.SwitchOf(m.Dst); s != d {
		if ps := n.flowEng.Candidates(s, d); len(ps) > 0 {
			path = ps[0]
			switches = len(path)
		}
	}
	// wire is the one-way flight of a packet along the path: edge
	// propagation both ends, mean switch traversal per hop, and wire
	// propagation per fabric hop.
	wire := 2*phy.EdgeDelay() + sim.Time(switches)*rosetta.MeanTraversal(0, 2) + n.propagation(path)
	// The data leg: host overhead, NIC tx+rx, flight, and one cell of
	// store-and-forward pipeline drain per switch (the fluid serialization
	// itself is the transfer's bytes/rate and lives in the solver).
	lat = prof.HostGap + 2*nicLatency + wire
	lat += sim.Time(switches) * sim.SerializationTime(ethernet.MaxPayload, prof.fabricBits())
	ackLat = n.revLatency(path)
	gap := prof.HostGap
	if m.Rendezvous {
		// RTS out, receiver setup, CTS back on the ack crossbars — all
		// before data moves.
		lat += wire + rendezvousSetup + ackLat
		gap = rendezvousMsgGap
	}
	// Sender-side per-message serial gap, charged as the bytes the edge
	// link would have moved in that time so back-to-back streaming
	// throughput matches the packet engine's inter-message pauses. A lone
	// message should not pay it in completion time — the fluid engine
	// serializes the extra bytes at up to edge rate, so subtracting the
	// gap from the latency makes the charge completion-neutral when
	// unloaded and a throughput brake when streaming.
	extraBytes = int64(float64(gap) / 8e12 * float64(prof.EdgeBits) * ethernet.Efficiency(ethernet.MaxPayload, edgeMode))
	if lat > gap {
		lat -= gap
	} else {
		lat = 0
	}
	return lat, ackLat, extraBytes
}

// flowHooks adapts *Network to flow.Hooks without a second dispatch
// object (same zero-alloc pattern as the NIC/switch event handlers).
type flowHooks Network

func (h *flowHooks) FlowDelivered(at sim.Time, arg any) {
	n := (*Network)(h)
	m := arg.(*Message)
	m.delivered = m.numPackets
	n.flowsCompleted++
	n.Counters.PacketsDelivered += int64(m.numPackets)
	if m.OnDelivered != nil {
		m.OnDelivered(at)
	}
}

func (h *flowHooks) FlowAcked(at sim.Time, arg any) {
	m := arg.(*Message)
	m.acked = m.numPackets
	if m.OnAcked != nil {
		m.OnAcked(at)
	}
	// The ack is the message's final event: an opted-in handle returns to
	// the Send free-list here.
	if m.recycle {
		(*Network)(h).freeMsg(m)
	}
}

// flowTicker is the control-engine event handler that advances the fluid
// engine. In sharded mode the control engine only runs while every shard
// worker is parked at an epoch barrier (par.Coordinator.step advances it
// after the run-phase barrier, and flushDeferred interleaves it with
// deferred callbacks) — so everything a tick does, including
// publishFlowBG's writes to the shared background tables, is sequential
// with respect to shard execution. That is the same no-tearing rule the
// epoch queue-depth snapshot follows.
type flowTicker Network

//simlint:hotpath
func (t *flowTicker) OnEvent(e *sim.Engine, ev *sim.Event) {
	n := (*Network)(t)
	n.flowTickEv = nil
	n.flowTick()
}

// flowTick advances the fluid engine to the present, credits delivered
// bytes, republishes background load, and schedules the next wake.
//
//simlint:hotpath
func (n *Network) flowTick() {
	n.flowEng.Advance(n.Eng.Now())
	n.Counters.BytesDelivered += n.flowEng.TakeProgress()
	if n.fid == FidelityHybrid {
		n.publishFlowBG()
	}
	n.scheduleFlowWake()
}

// scheduleFlowWake keeps exactly one tick pending: the earliest of the
// engine's next completion/callback and — in hybrid mode — the periodic
// background refresh. A later pending tick is cancelled, not left to
// fire: a fired tick re-arms, so every superseded tick would otherwise
// grow a self-sustaining chain of its own (the NIC.schedulePump idiom).
// At FidelityFlow there is no packet path left to feed, so the engine
// wakes only at flow completions: background publication (and its 1 us
// cadence) is pure overhead there and is skipped, which is most of what
// makes the fluid path's ns-per-simulated-byte tiny.
//
//simlint:hotpath
func (n *Network) scheduleFlowWake() {
	next := n.flowEng.NextWake()
	if n.fid == FidelityHybrid && n.flowEng.Active() > 0 {
		if t := n.Eng.Now() + flowBGInterval; t < next {
			next = t
		}
	}
	// Invariant: flowTickEv is nil or a live queued event (the tick nils
	// it first thing; the cancel below reassigns immediately).
	if ev := n.flowTickEv; ev != nil {
		if ev.At <= next {
			return
		}
		n.Eng.Cancel(ev)
	} else if next == sim.Forever {
		return
	}
	n.flowTickEv = n.Eng.Schedule(next, (*flowTicker)(n), 0, nil)
}

// publishFlowBG converts the solver's per-segment allocated rates into
// queued-byte equivalents in the shared background tables. An M/M/1-ish
// shape — rho/(1-rho) cells of standing queue — maps light load to a
// negligible figure and saturation to a deeply-congested one, which is
// what the consumers (PathCost scoring, the endpoint-signal and ECN
// thresholds) calibrate against. Runs only on the control engine; see
// flowTicker for why that cannot tear against shard readers.
//
//simlint:hotpath
func (n *Network) publishFlowBG() {
	if n.flowBG == nil {
		return
	}
	n.flowEng.Resolve()
	for slot := range n.flowBG {
		rate, cap := n.flowEng.SegmentRate(slot)
		n.flowBG[slot] = bgQueueEquivalent(rate, cap)
	}
	for node := range n.flowBGEdge {
		rate, cap := n.flowEng.EdgeDownRate(topology.NodeID(node))
		n.flowBGEdge[node] = bgQueueEquivalent(rate, cap)
	}
}

// bgQueueEquivalent maps utilization rho to queued bytes.
//
//simlint:hotpath
func bgQueueEquivalent(rate, cap float64) int64 {
	if rate <= 0 || cap <= 0 {
		return 0
	}
	rho := rate / cap
	if rho >= 0.97 {
		return bgMaxQueue
	}
	q := int64(rho / (1 - rho) * bgMTU)
	if q > bgMaxQueue {
		q = bgMaxQueue
	}
	return q
}

// bgQueued is the background queued-byte figure for one egress port:
// fabric ports read the (switch, neighbor) slot, edge ports the
// destination node's slot. Zero when fidelity is packet-only.
//
//simlint:hotpath
func (o *outPort) bgQueued() int64 {
	if o.net.flowBG == nil || o.bgIdx < 0 {
		return 0
	}
	if o.edge {
		return o.net.flowBGEdge[o.bgIdx]
	}
	return o.net.flowBG[o.bgIdx]
}
