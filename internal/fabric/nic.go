package fabric

import (
	"repro/internal/congestion"
	"repro/internal/ethernet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// NIC is one endpoint adapter. It owns per-destination send queues (RDMA
// queue pairs are independent), the endpoint congestion controller, and the
// injection port into its switch.
type NIC struct {
	net *Network
	// dom is the NIC's owning domain (its switch's domain); all NIC-side
	// event scheduling and clock reads go through it.
	dom *domain
	ID  topology.NodeID
	cc  congestion.Controller
	inj *outPort

	// Per-destination send state, slice-indexed by destination node ID so
	// the injection loop does zero map lookups. Allocated lazily on the
	// first submit: NICs that only ever receive pay nothing.
	queues [][]*Message
	active []bool            // active[dst]: dst currently in order
	order  []topology.NodeID // active destinations, round-robin
	rr     int
	// nextDataAt gates the start of the next rendezvous transfer per
	// destination (sender-side completion/descriptor handling between
	// bulk messages; see rendezvousMsgGap).
	nextDataAt []sim.Time

	hostFreeAt sim.Time
	pumpEv     *sim.Event
}

// injDepth keeps the injection queue shallow so congestion-control pacing
// and round-robin fairness act at packet granularity.
const injDepth = 3

// selfLoopback is the latency of a self-send (shared-memory copy).
const selfLoopback = 500 * sim.Nanosecond

// Rendezvous protocol costs, calibrated against Fig. 4: a 128 KiB message
// takes ~24 us one-way (dominated by receiver-side buffer setup, which
// pipelines away under load) while a stream of them sustains ~75 Gb/s
// (set by a small non-overlappable per-message gap at the sender).
const (
	// rendezvousSetup delays the CTS at the receiver (registration/DMA
	// setup). It overlaps with other messages' data, so it does not limit
	// streaming bandwidth.
	rendezvousSetup = 7 * sim.Microsecond
	// rendezvousMsgGap is the sender-side pause between consecutive bulk
	// messages to the same destination (completion handling); it sets the
	// 128 KiB streaming plateau at ~75 Gb/s and amortizes away at 4 MiB.
	rendezvousMsgGap = 2800 * sim.Nanosecond
	// rtsScanDepth is how many queued messages per destination may have
	// their RTS sent ahead of time, letting handshakes pipeline.
	rtsScanDepth = 4
)

// Event handlers (closure-free dispatch): each handler type is a pointer
// alias of the NIC (or Message) that owns the event, so scheduling stores
// just the object pointer in the event's handler word and allocates
// nothing. Per-event context rides the event's Arg/Data words.

// nicPump re-pumps the injection queues (pacing/host-gap wakeups).
type nicPump NIC

//simlint:hotpath
func (h *nicPump) OnEvent(_ *sim.Engine, _ *sim.Event) {
	n := (*NIC)(h)
	n.pumpEv = nil
	n.pump()
}

// msgSelfDeliver completes a loopback self-send.
type msgSelfDeliver Message

//simlint:hotpath
func (h *msgSelfDeliver) OnEvent(e *sim.Engine, _ *sim.Event) {
	m := (*Message)(h)
	at := e.Now()
	m.delivered = m.numPackets
	m.acked = m.numPackets
	if m.OnDelivered != nil {
		m.OnDelivered(at)
	}
	if m.OnAcked != nil {
		m.OnAcked(at)
	}
}

// nicGrantCTS (source-side) completes the rendezvous handshake for the
// message in Data: the receive buffer is ready, so this source may
// stream. The receiver schedules it on the source NIC — handshake state
// (dataReady) and the pump it wakes are both source-side.
type nicGrantCTS NIC

//simlint:hotpath
func (h *nicGrantCTS) OnEvent(_ *sim.Engine, ev *sim.Event) {
	n := (*NIC)(h)
	m := ev.Data.(*Message)
	m.dataReady = true
	n.pump()
}

// The end-to-end ack's event Arg packs its sample: the RTT above
// ackRTTShift (sharded mode only; classic reads the message's ackRTT
// word, see deliver), the acked buffer bytes in the middle field, the
// ECN mark in bit 0. Buffer bytes top out at MaxPayload+RoCEHeaders
// (~4.2 KB), far inside the 20-bit field; the RTT field holds ~4.4
// simulated seconds.
const (
	ackRTTShift  = 21
	ackBytesMask = (1 << 20) - 1
)

// nicAck (source-side) lands one end-to-end ack for the message in Data;
// Arg carries the packed sample (see ackRTTShift).
type nicAck NIC

//simlint:hotpath
func (h *nicAck) OnEvent(e *sim.Engine, ev *sim.Event) {
	src := (*NIC)(h)
	m := ev.Data.(*Message)
	now := e.Now()
	rtt := sim.Time(ev.Arg >> ackRTTShift)
	if src.dom.sh == nil {
		rtt = m.ackRTT
	}
	src.cc.OnAck(m.Dst, (ev.Arg>>1)&ackBytesMask, ev.Arg&1 != 0, rtt, now)
	m.acked++
	if m.acked >= m.numPackets && m.OnAcked != nil {
		if src.dom.sh != nil {
			src.dom.deferCall(now, m.OnAcked)
		} else {
			m.OnAcked(now)
		}
	}
	src.pump()
}

// nicRetransmit re-injects the lost packet in Data (end-to-end retry).
type nicRetransmit NIC

//simlint:hotpath
func (h *nicRetransmit) OnEvent(_ *sim.Engine, ev *sim.Event) {
	(*NIC)(h).retransmit(ev.Data.(*Packet))
}

// nicDeliver terminates the arriving packet in Data at this NIC.
type nicDeliver NIC

//simlint:hotpath
func (h *nicDeliver) OnEvent(_ *sim.Engine, ev *sim.Event) {
	(*NIC)(h).deliver(ev.Data.(*Packet))
}

// nicSignal lands a Slingshot endpoint-congestion notification at this
// (source) NIC for the message in Data; Arg carries the egress-queue depth
// observed at the edge port, from which severity is derived exactly as the
// emitting switch would have.
type nicSignal NIC

//simlint:hotpath
func (h *nicSignal) OnEvent(e *sim.Engine, ev *sim.Event) {
	n := (*NIC)(h)
	m := ev.Data.(*Message)
	sev := float64(ev.Arg) / float64(4*endpointThreshold)
	if sev > 1 {
		sev = 1
	}
	n.cc.OnSignal(m.Dst, sev, e.Now())
	n.pump()
}

// submit queues a message for transmission. Called via Network.Send.
func (n *NIC) submit(m *Message) {
	now := n.net.Eng.Now()
	if m.Dst == n.ID {
		// Self-send: loopback, no fabric involvement.
		n.net.Eng.After(n.net.Prof.HostGap+selfLoopback, (*msgSelfDeliver)(m), 0, nil)
		return
	}

	// The host/driver spends HostGap per message; messages submitted
	// back-to-back serialize on it (this is the ~1.2M msg/s small-message
	// rate of Fig. 4).
	if n.hostFreeAt < now {
		n.hostFreeAt = now
	}
	n.hostFreeAt += n.net.Prof.HostGap
	m.hostReady = n.hostFreeAt
	m.dataReady = !m.Rendezvous

	if n.queues == nil {
		nodes := n.net.Topo.Nodes()
		n.queues = make([][]*Message, nodes)
		n.active = make([]bool, nodes)
		n.nextDataAt = make([]sim.Time, nodes)
	}
	if !n.active[m.Dst] {
		n.active[m.Dst] = true
		n.order = append(n.order, m.Dst)
	}
	n.queues[m.Dst] = append(n.queues[m.Dst], m)
	n.pump()
}

// pump moves packets from the per-destination message queues into the
// injection port, subject to host readiness, the rendezvous handshake and
// the congestion-control window/pacing. The clock is the domain's: when a
// control-side submit pumps a sharded NIC between epochs, injection
// quantizes to the current epoch boundary — identically for any worker
// count.
func (n *NIC) pump() {
	now := n.dom.eng.Now()
	var earliest sim.Time
	for n.inj.sched.Len() < injDepth {
		p, retry := n.nextPacket(now)
		if p == nil {
			if retry > 0 && (earliest == 0 || retry < earliest) {
				earliest = retry
			}
			break
		}
		n.inj.sched.Enqueue(p.Class, int(bufBytes(p)), p)
		n.inj.pump()
	}
	n.scheduleRetry(now, earliest)
}

// scheduleRetry schedules the next pump for a retry deadline returned by
// nextPacket (zero means nothing to retry). A deadline at or before now —
// a pacing edge — must still get a wakeup (at now+1); silently dropping it
// would stall the queue until some unrelated event happened to re-pump.
func (n *NIC) scheduleRetry(now, earliest sim.Time) {
	if earliest <= 0 {
		return
	}
	if earliest <= now {
		earliest = now + 1
	}
	n.schedulePump(earliest)
}

func (n *NIC) schedulePump(at sim.Time) {
	// Invariant: pumpEv is nil or a live queued event (the callback nils
	// it first thing; the cancel below reassigns immediately) — required
	// now that the engine recycles Event structs.
	if n.pumpEv != nil {
		if n.pumpEv.At <= at {
			return
		}
		n.dom.eng.Cancel(n.pumpEv)
	}
	n.pumpEv = n.dom.eng.Schedule(at, (*nicPump)(n), 0, nil)
}

// nextPacket selects the next injectable packet, round-robin over active
// destinations. It returns nil with an optional retry time when nothing is
// currently injectable.
func (n *NIC) nextPacket(now sim.Time) (*Packet, sim.Time) {
	var earliest sim.Time
	for k := 0; k < len(n.order); k++ {
		idx := (n.rr + k) % len(n.order)
		dst := n.order[idx]
		q := n.queues[dst]
		if len(q) == 0 {
			continue
		}
		// RTSes of queued rendezvous messages go out ahead of time so the
		// handshakes pipeline behind the current transfer's data.
		for j := 0; j < len(q) && j < rtsScanDepth; j++ {
			mj := q[j]
			if mj.Rendezvous && !mj.rtsSent && now >= mj.hostReady {
				mj.rtsSent = true
				n.rr = (idx + 1) % len(n.order)
				p := n.dom.allocPacket()
				p.Msg, p.Class, p.ctrl, p.sentAt = mj, mj.Class, true, now
				return p, 0
			}
		}
		m := q[0]
		if now < m.hostReady {
			if earliest == 0 || m.hostReady < earliest {
				earliest = m.hostReady
			}
			continue
		}
		if m.Rendezvous {
			if !m.dataReady {
				continue // waiting for CTS; its arrival re-pumps
			}
			// Sender-side gap between consecutive bulk transfers.
			if m.nextSeq == 0 {
				if gate := n.nextDataAt[dst]; now < gate {
					if earliest == 0 || gate < earliest {
						earliest = gate
					}
					continue
				}
			}
		}
		// Data packet, subject to the congestion window.
		size := int64(ethernet.MaxPayload)
		remaining := m.Bytes - int64(m.nextSeq)*size
		if remaining < size {
			size = remaining
		}
		if size < 0 {
			size = 0
		}
		ok, retryAt := n.cc.CanSend(dst, size, now)
		if !ok {
			if retryAt > 0 && (earliest == 0 || retryAt < earliest) {
				earliest = retryAt
			}
			continue
		}
		n.cc.OnSend(dst, size, now)
		p := n.dom.allocPacket()
		p.Msg, p.Seq, p.Payload, p.Class, p.sentAt = m, m.nextSeq, int(size), m.Class, now
		m.nextSeq++
		if m.nextSeq >= m.numPackets {
			if m.Rendezvous {
				n.nextDataAt[dst] = now + rendezvousMsgGap
			}
			// Fully injected: drop from the queue (completion is tracked
			// by the message itself).
			n.queues[dst] = q[1:]
			if len(n.queues[dst]) == 0 {
				n.queues[dst] = nil
				n.active[dst] = false
				n.removeOrder(dst)
				// Note: rr now indexes a shifted slice; harmless for
				// round-robin fairness.
				return p, 0
			}
		}
		n.rr = (idx + 1) % max(1, len(n.order))
		return p, 0
	}
	return nil, earliest
}

func (n *NIC) removeOrder(dst topology.NodeID) {
	for i, d := range n.order {
		if d == dst {
			n.order = append(n.order[:i], n.order[i+1:]...)
			return
		}
	}
}

// retransmit re-injects a packet whose frame was lost in the fabric (the
// end-to-end retry of §II-F). The packet restarts from the source switch
// with a fresh route and a fresh RTT stamp — Karn's rule: the original
// flight's retry timeout must not read as path congestion, so the ack's
// RTT sample measures the retransmission's own flight only.
func (n *NIC) retransmit(p *Packet) {
	p.Path = nil
	p.hop = 0
	p.inPort = nil
	p.ecnMarked = false
	p.sentAt = n.dom.eng.Now()
	n.inj.sched.Enqueue(p.Class, int(bufBytes(p)), p)
	n.inj.pump()
}

// deliver receives a packet off the edge link. The packet terminates
// here: it is recycled onto the domain's free-list once the taps and ack
// scheduling have run, so taps must not retain it.
func (n *NIC) deliver(p *Packet) {
	now := n.dom.eng.Now()
	m := p.Msg
	if p.ctrl {
		// RTS arrived: set up the receive buffer (rendezvousSetup), then
		// grant the transfer. The CTS rides the ack path back to the
		// source NIC (handshake state and the pump are source-side).
		src := n.net.nics[m.Src]
		n.dom.post(src.dom, now+rendezvousSetup+n.net.revLatency(p.Path), (*nicGrantCTS)(src), 0, m)
		n.dom.freePacket(p)
		return
	}
	if !m.markDelivered(p.Seq) {
		// Duplicate delivery (a late original plus its end-to-end
		// retransmit): the first copy already counted, fired the taps and
		// acked; a second would inflate the stats and double-fire
		// OnDelivered/OnAcked. Not recycled: the first copy may be the
		// same recycled struct, and freeing twice would corrupt the list.
		return
	}
	m.delivered++
	n.dom.ctr.PacketsDelivered++
	n.dom.ctr.BytesDelivered += int64(p.Payload)
	if tap := n.net.Taps.OnPacketDelivered; tap != nil {
		// Sharded, taps are measurement/control code: they run at the
		// epoch barrier, on a copy (the packet recycles right below), in
		// canonical order.
		if n.dom.sh != nil {
			n.dom.deferTap(now, p)
		} else {
			tap(p, now)
		}
	}
	if m.delivered >= m.numPackets {
		if m.OnDelivered != nil {
			if n.dom.sh != nil {
				n.dom.deferCall(now, m.OnDelivered)
			} else {
				m.OnDelivered(now)
			}
		}
	}
	// End-to-end acknowledgement back to the source (§II-A: End-to-End
	// Acks crossbar; they track outstanding packets between every pair of
	// endpoints). The ack's size and ECN mark pack into the event's Arg
	// word because the packet struct is recycled right below. The RTT
	// sample — injection to ack arrival, the signal delay-based CC feeds
	// on — rides the message in classic mode (overlapping deliveries
	// overwrite it with a fresher sample, which is fine for a rate
	// controller and is what the goldens pin); sharded, the ack may cross
	// domains mid-epoch, so the per-packet sample packs into Arg instead
	// of racing through the message.
	src := n.net.nics[m.Src]
	arg := bufBytes(p) << 1
	if p.ecnMarked {
		arg |= 1
	}
	rev := n.net.revLatency(p.Path)
	if n.dom.sh == nil {
		m.ackRTT = now + rev - p.sentAt
	} else {
		arg |= int64(now+rev-p.sentAt) << ackRTTShift
	}
	n.dom.post(src.dom, now+rev, (*nicAck)(src), arg, m)
	n.dom.freePacket(p)
}
