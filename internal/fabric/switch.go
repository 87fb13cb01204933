package fabric

import (
	"repro/internal/rosetta"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Switch is the runtime state of one Rosetta (or Aries) switch.
type Switch struct {
	net *Network
	// dom is the switch's owning domain (its topology partition unit);
	// all switch-side event scheduling and clock reads go through it.
	dom *domain
	ID  topology.SwitchID
	rng *sim.RNG
	lat *rosetta.LatencyModel
	// inPort/outPort sampling for the traversal latency model: we don't
	// track physical port numbers per packet, so traversals sample a
	// uniformly random (in, out) pair — matching the measured Fig. 2
	// distribution over many flows.
}

// portsTo returns the parallel egress ports towards an adjacent switch
// (its link slot's list), or nil when the switches are not adjacent, so
// callers like DegradeLinkLanes may probe arbitrary pairs.
func (s *Switch) portsTo(next topology.SwitchID) []*outPort {
	slot := s.net.Topo.Slot(s.ID, next)
	if slot < 0 {
		return nil
	}
	return s.net.slotPorts[slot]
}

// Event handlers (closure-free dispatch): pointer aliases of Switch, with
// the packet in the event's Data word.

// switchArrive receives the packet in Data from an upstream link.
type switchArrive Switch

//simlint:hotpath
func (h *switchArrive) OnEvent(_ *sim.Engine, ev *sim.Event) {
	(*Switch)(h).arrive(ev.Data.(*Packet))
}

// switchForward routes the packet in Data after the traversal latency.
type switchForward Switch

//simlint:hotpath
func (h *switchForward) OnEvent(_ *sim.Engine, ev *sim.Event) {
	(*Switch)(h).forward(ev.Data.(*Packet))
}

// arrive receives a packet from an upstream link. The input-buffer space
// was reserved by the upstream credit before transmission; processing
// (route lookup, VOQ request/grant, crossbar) takes one traversal latency.
func (s *Switch) arrive(p *Packet) {
	var lat sim.Time
	if s.net.Prof.SwitchJitter {
		lat = s.lat.Traversal(s.rng.Intn(rosetta.Ports), s.rng.Intn(rosetta.Ports))
	} else {
		lat = rosetta.MeanTraversal(0, 2) // deterministic mean (~350 ns)
	}
	s.dom.eng.After(lat, (*switchForward)(s), 0, p)
}

// forward routes the packet to its egress queue.
func (s *Switch) forward(p *Packet) {
	if p.Path == nil {
		// This is the packet's source switch: adaptive routing chooses the
		// full path here (§II-C: the source switch estimates the load of up
		// to four minimal and non-minimal paths).
		p.Path = s.net.choosePath(s, p)
		p.hop = 0
	}
	var o *outPort
	if p.hop == len(p.Path)-1 {
		// Final switch: egress to the destination NIC.
		o = s.net.edgePorts[p.Msg.Dst]
	} else {
		next := p.Path[p.hop+1]
		p.hop++
		o = s.bestPortTo(next)
	}
	s.enqueue(o, p)
}

// bestPortTo picks the least-loaded parallel link towards an adjacent
// switch.
func (s *Switch) bestPortTo(next topology.SwitchID) *outPort {
	o, _ := leastLoaded(s.portsTo(next))
	return o
}

// enqueue places the packet in the egress scheduler and runs the
// congestion-detection hooks the configured CC algorithm asked for
// (congestion.Hooks, cached on the network at build time).
func (s *Switch) enqueue(o *outPort, p *Packet) {
	o.sched.Enqueue(p.Class, int(bufBytes(p)), p)

	// Fluid background load counts toward both congestion-detection
	// thresholds so hybrid-mode CC reacts to bulk flows it shares the
	// port with (zero at the packet default).
	if s.net.wantSignals && o.edge && !p.ctrl {
		if q := o.queuedBytes() + o.bgQueued(); q > endpointThreshold {
			s.signalSource(p, q)
		}
	}
	if s.net.wantECN && o.queuedBytes()+o.bgQueued() > ecnThreshold {
		p.ecnMarked = true
	}
	o.pump()
}

// signalSource sends the per-pair back-pressure notification to the source
// of a packet contributing to endpoint congestion (§II-D). The notification
// rides the ack crossbars back to the source NIC; we model its latency as
// the reverse-path delay of the packet. The observed queue depth rides the
// event's Arg word; nicSignal derives the severity from it at delivery
// with exactly the arithmetic used here before the refactor.
func (s *Switch) signalSource(p *Packet, queued int64) {
	delay := s.net.revLatency(p.Path)
	nic := s.net.nics[p.Msg.Src]
	s.dom.ctr.Signals++
	// A cross-domain notification's reverse path retraces the packet's:
	// it includes the domain-cut optical hop, so the post always clears
	// the epoch fence.
	s.dom.post(nic.dom, s.dom.eng.Now()+delay, (*nicSignal)(nic), queued, p.Msg)
}
