package fabric

import (
	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/qos"
	"repro/internal/sim"
)

// bufBytes is the input-buffer occupancy of a packet: payload plus the
// RoCEv2 header stack. Buffers and credits are accounted in these units on
// every link regardless of the link's framing mode.
func bufBytes(p *Packet) int64 {
	return int64(p.Payload + ethernet.RoCEHeaders)
}

// outPort is one transmit direction of a link: from a switch (or a NIC's
// injection side) towards a peer switch or NIC. It owns the egress queue
// (a per-traffic-class DRR scheduler), the busy/serialization state, and
// the credit count representing free space in the peer's input buffer.
// Every port lives in its network's port table (Network.ports).
type outPort struct {
	net *Network
	// dom is the owning domain: the transmitting switch's (or, for an
	// injection port, the transmitting NIC's, which is its switch's).
	dom   *domain
	sched qos.PortScheduler
	bits  int64
	prop  sim.Time
	mode  ethernet.Mode

	ownerNIC *NIC    // transmitting NIC; nil for switch ports
	peerSw   *Switch // nil when the port faces a NIC
	peerNIC  *NIC

	edge   bool // switch->NIC port: endpoint congestion is detected here
	global bool // inter-group optical link

	// bgIdx is this port's slot in the fluid background-load tables
	// (flowBGEdge for edge ports, flowBG for fabric ports), stamped by
	// SetFidelity; -1 for ports with no slot (NIC injection).
	bgIdx int32

	// phy is the physical link's lane state: lane degrade reduces the
	// effective bandwidth. rng, set only when Profile.FrameBER > 0, draws
	// the post-FEC frame errors that transmit makes LLR retry (or lose,
	// triggering the NIC end-to-end retry, §II-F).
	phy phy.Link
	rng *sim.RNG

	busy    bool
	credits int64

	watchdogEv *sim.Event // pending deadlock-escape overdraft; nil when disarmed
}

// creditUnlimited is the credit count used when the receiver can always
// accept (a NIC's receive buffer).
const creditUnlimited = int64(1) << 42

// watchdogDelay is how long a port may be fully credit-starved before the
// deadlock-escape overdraft kicks in. Real networks break such cycles with
// virtual channels; the overdraft is our equivalent and fires only under
// pathological saturation.
const watchdogDelay = 500 * sim.Microsecond

// Event handlers (closure-free dispatch): pointer aliases of outPort.

// portCreditReturn returns Arg bytes of input-buffer credit to this port
// (a packet departed the downstream element) and re-pumps it.
type portCreditReturn outPort

//simlint:hotpath
func (h *portCreditReturn) OnEvent(_ *sim.Engine, ev *sim.Event) {
	o := (*outPort)(h)
	o.credits += ev.Arg
	o.pump()
}

// portTxDone ends a transmission: the wire is free for the next packet.
type portTxDone outPort

//simlint:hotpath
func (h *portTxDone) OnEvent(_ *sim.Engine, _ *sim.Event) {
	o := (*outPort)(h)
	o.busy = false
	o.pump()
	if o.ownerNIC != nil {
		o.ownerNIC.pump()
	}
}

// portWatchdog fires the deadlock-escape overdraft after a starvation
// interval.
type portWatchdog outPort

//simlint:hotpath
func (h *portWatchdog) OnEvent(_ *sim.Engine, _ *sim.Event) {
	o := (*outPort)(h)
	o.watchdogEv = nil
	if o.busy || o.sched.Len() == 0 {
		return
	}
	// Still starved: grant an overdraft credit for one packet so the
	// fabric cannot wedge (virtual-channel escape equivalent).
	if o.peerSw != nil && o.credits < int64(ethernet.MaxPayload+ethernet.RoCEHeaders) {
		o.dom.ctr.Overdrafts++
		o.credits += int64(ethernet.MaxPayload + ethernet.RoCEHeaders)
	}
	o.pump()
}

// pump advances the port: if idle, pick the next packet the scheduler and
// credits allow and start transmitting it.
func (o *outPort) pump() {
	if o.busy || o.sched.Len() == 0 {
		return
	}
	now := o.dom.eng.Now()
	max := o.credits
	if o.peerNIC != nil {
		max = creditUnlimited
	}
	v, _, _, ok := o.sched.Dequeue(clampInt(max))
	if !ok {
		if o.peerSw != nil && o.credits < o.sched.TotalQueuedBytes() {
			o.armWatchdog(now)
		}
		return
	}
	o.disarmWatchdog()
	p := v.(*Packet)
	o.transmit(p, now)
}

func clampInt(v int64) int {
	const maxInt = int64(^uint(0) >> 1)
	if v < 0 {
		return 0
	}
	if v > maxInt {
		return int(maxInt)
	}
	return int(v)
}

// effBits is the port's current usable bandwidth: the configured rate
// capped by the physical link's surviving lanes.
func (o *outPort) effBits() int64 {
	if pb := o.phy.Bandwidth(); pb < o.bits {
		return pb
	}
	return o.bits
}

// transmit puts p on the wire.
func (o *outPort) transmit(p *Packet, now sim.Time) {
	o.busy = true
	size := bufBytes(p)
	if o.peerSw != nil {
		o.credits -= size
	}

	// Departing the current element frees the upstream input-buffer space
	// this packet was holding; the credit travels one reverse hop. A
	// cross-domain upstream hop is a partition-cut link — optical in all
	// three decompositions — so its propagation is the full lookahead and
	// the post always clears the epoch fence.
	if ip := p.inPort; ip != nil {
		o.dom.post(ip.dom, now+ip.prop, (*portCreditReturn)(ip), size, nil)
	}
	p.inPort = o

	wire := ethernet.WireBytes(p.Payload, o.mode)
	ser := sim.SerializationTime(int64(wire), o.effBits())

	// Frame-error injection (§II-F): LLR retries add wire time; without
	// LLR the frame is lost and the source NIC's end-to-end retry recovers
	// it after a timeout.
	occupancy := ser
	lost := false
	if ber := o.net.Prof.FrameBER; ber > 0 && o.rng != nil {
		for o.rng.Float64() < ber {
			if !o.net.Prof.LLR {
				lost = true
				o.dom.ctr.FramesLost++
				break
			}
			o.dom.ctr.LLRRetries++
			occupancy += phy.LLRDelay + ser
		}
	}

	o.dom.eng.After(occupancy, (*portTxDone)(o), 0, nil)
	if lost {
		o.loseFrame(p, size, occupancy, now)
		return
	}
	// A cross-domain arrival crosses a partition-cut (optical) link, so
	// occupancy + propagation is beyond the lookahead window.
	arrival := occupancy + o.prop + phy.FECLatency
	switch {
	case o.peerSw != nil:
		o.dom.post(o.peerSw.dom, now+arrival, (*switchArrive)(o.peerSw), 0, p)
	default:
		o.dom.eng.After(arrival+nicLatency, (*nicDeliver)(o.peerNIC), 0, p)
	}
}

// loseFrame handles an unrecovered link error: the reserved downstream
// buffer space returns, and the source NIC retransmits the packet after
// its end-to-end retry timeout (§II-F: "the SLINGSHOT NIC provides
// end-to-end retry to protect against packet loss"). The lost packet
// migrates to the source NIC's domain for re-injection (and, with it,
// between domain free-lists).
func (o *outPort) loseFrame(p *Packet, size int64, after, now sim.Time) {
	if o.peerSw != nil {
		o.dom.eng.After(after+o.prop, (*portCreditReturn)(o), size, nil)
	}
	src := o.net.nics[p.Msg.Src]
	timeout := o.net.Prof.RetryTimeout
	if timeout <= 0 {
		timeout = 50 * sim.Microsecond
	}
	o.dom.ctr.E2ERetries++
	o.dom.post(src.dom, now+after+timeout, (*nicRetransmit)(src), 0, p)
}

// armWatchdog schedules the deadlock-escape overdraft.
func (o *outPort) armWatchdog(now sim.Time) {
	if o.watchdogEv != nil {
		return
	}
	o.watchdogEv = o.dom.eng.Schedule(now+watchdogDelay, (*portWatchdog)(o), 0, nil)
}

func (o *outPort) disarmWatchdog() {
	if o.watchdogEv != nil {
		o.dom.eng.Cancel(o.watchdogEv)
		o.watchdogEv = nil
	}
}

// queuedBytes is the congestion estimate adaptive routing reads (§II-C:
// "the total depth of the request queues of each output port").
func (o *outPort) queuedBytes() int64 { return o.sched.TotalQueuedBytes() }

// leastLoaded returns the parallel egress port with the fewest queued
// bytes, and that depth; the first port wins ties. Forwarding
// (bestPortTo), live routing load reads and the epoch load snapshot all
// choose through it.
//
//simlint:hotpath
func leastLoaded(ports []*outPort) (*outPort, int64) {
	best, least := ports[0], ports[0].queuedBytes()
	for _, o := range ports[1:] {
		if q := o.queuedBytes(); q < least {
			best, least = o, q
		}
	}
	return best, least
}
