package fabric

import (
	"fmt"

	"repro/internal/congestion"
	"repro/internal/ethernet"
	"repro/internal/flow"
	"repro/internal/phy"
	"repro/internal/qos"
	"repro/internal/rosetta"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/sim/par"
	"repro/internal/topology"
)

// Taps are optional measurement hooks.
type Taps struct {
	// OnPacketDelivered fires for every data packet that reaches its
	// destination NIC.
	OnPacketDelivered func(p *Packet, at sim.Time)
}

// Network is a running simulated system: topology + switches + NICs under
// one discrete-event engine. It is built from the backend-neutral
// topology.Topology contract, so the same switch/NIC/QoS machinery runs a
// Dragonfly, a fat-tree, or a HyperX unchanged.
type Network struct {
	Topo topology.Topology
	Eng  *sim.Engine
	Prof Profile
	QoS  *qos.Config
	Taps Taps

	rng      *sim.RNG
	switches []*Switch
	nics     []*NIC
	// ports is the port table: topology link l's two directions are
	// ports 2l and 2l+1 (switch->NIC then NIC->switch for an edge link,
	// A->B then B->A for a fabric link). Never resized after build.
	ports []outPort
	msgID int64
	// wantSignals/wantECN cache the congestion algorithm's fabric-side
	// hooks (congestion.Hooks), so the per-packet enqueue path reads two
	// bools instead of dispatching on the controller.
	wantSignals, wantECN bool
	// minPaths lazily caches the topology.RouteCandidates minimal paths
	// per switch pair, row by source switch: minPaths[src][dst]. Rows
	// allocate on the first packet routed from that source, so a large
	// fabric pays O(sources actually routing) rather than an
	// O(Switches²) spike on the first packet.
	// Minimal-path enumeration is deterministic and RNG-free, so caching
	// cannot perturb replay; it removes the per-packet path-construction
	// allocations from adaptive routing. The cached paths are shared (they
	// are handed to every routing decision) and must never be mutated.
	// The outer slice is sized at build; rows are faulted only by the
	// domain owning the source switch, so sharded fabrics never race on it.
	minPaths [][][]topology.Path
	// selfPaths[s] is the cached single-hop path {s} returned for
	// intra-switch routing decisions; without it the src == dst shortcut
	// in route allocated a one-element Path per packet — the dominant
	// allocator in congestion-grid cells with co-located ranks. Read-only
	// after build, like the minPaths entries.
	selfPaths []topology.Path
	// slotBase numbers the directed switch-to-switch links
	// (topology.LinkSlotBase): the sharded load snapshot and the fluid
	// background-load table index by it, as do the fluid engine's fabric
	// segments. Built on first use by linkSlots.
	slotBase []int32

	// Sharding state (see domain.go). doms always has at least the one
	// classic domain; par is nil in classic mode.
	doms []*domain
	par  *par.Coordinator
	// snap is the epoch-start remote-load snapshot, one entry per link
	// slot, refreshed by each switch's owning domain at the epoch drain
	// barrier.
	snap    []int64
	defrBuf defrMerge

	// Fidelity state (see fidelity.go). flowEng is nil at the packet
	// default and carries every fluid flow otherwise, driven from the
	// control engine; flowTickEv is its one pending tick (nil when idle).
	// The background tables are written only at epoch barriers (control
	// engine): flowBG per link slot, flowBGEdge per node.
	fid        Fidelity
	flowEng    *flow.Engine
	flowTickEv *sim.Event
	flowBG     []int64
	flowBGEdge []int64
	// flowsStarted/flowsCompleted count fluid admissions and completions.
	flowsStarted, flowsCompleted int64
	// msgFree recycles opted-in (SendOpts.Recycle) Message structs so
	// steady-state fluid Send/complete churn is allocation-free.
	msgFree []*Message

	// Stats. The embedded Counters promote, so n.PacketsDelivered etc.
	// read as before; sharded runs fold per-domain blocks in here at each
	// epoch barrier.
	Counters
}

// New builds a classic (single-threaded) network over the given topology
// with the given profile. seed makes the run reproducible.
func New(topo topology.Topology, prof Profile, seed uint64) *Network {
	return NewSharded(topo, prof, seed, 0)
}

// NewSharded builds a network split into the topology's natural domains
// (Dragonfly groups, fat-tree pods, HyperX dim-0 rows) and driven by
// conservative lock-step epochs with up to `domains` parallel workers.
// domains <= 0 builds the classic single-threaded network (the exact
// pre-sharding event flow). The decomposition is the topology's — never
// the worker count's — so every sharded run of one configuration is
// byte-identical for any domains >= 1, including 1.
func NewSharded(topo topology.Topology, prof Profile, seed uint64, domains int) *Network {
	qcfg := prof.QoS
	if qcfg == nil {
		qcfg = qos.DefaultConfig()
	}
	if err := qcfg.Validate(); err != nil {
		panic(fmt.Sprintf("fabric: bad QoS config: %v", err))
	}
	n := &Network{
		Topo: topo,
		Eng:  sim.NewEngine(),
		Prof: prof,
		QoS:  qcfg,
		rng:  sim.NewRNG(seed),
	}
	n.build()
	if domains <= 0 {
		n.initClassic()
	} else {
		n.initDomains(domains)
	}
	return n
}

func (n *Network) build() {
	topo := n.Topo
	prof := &n.Prof
	// The outer cache spine is sized here so sharded domains fault rows
	// concurrently without ever touching a shared lazy allocation.
	n.minPaths = make([][][]topology.Path, topo.Switches())
	selfIDs := make([]topology.SwitchID, topo.Switches())
	n.selfPaths = make([]topology.Path, topo.Switches())
	for i := range selfIDs {
		selfIDs[i] = topology.SwitchID(i)
		n.selfPaths[i] = selfIDs[i : i+1 : i+1]
	}
	n.switches = make([]*Switch, topo.Switches())
	for i := range n.switches {
		rng := n.rng.Split()
		first, count := topo.SwitchNodes(topology.SwitchID(i))
		n.switches[i] = &Switch{
			net:       n,
			ID:        topology.SwitchID(i),
			rng:       rng,
			lat:       rosetta.NewLatencyModel(rng.Split()),
			ports:     make([][]*outPort, topo.NeighborCount(topology.SwitchID(i))),
			edge:      make([]*outPort, count),
			firstNode: int(first),
		}
	}
	n.nics = make([]*NIC, topo.Nodes())
	for i := range n.nics {
		n.nics[i] = &NIC{
			net: n,
			ID:  topology.NodeID(i),
			cc:  prof.CC(),
		}
	}
	if len(n.nics) > 0 {
		// Every NIC runs the same algorithm; cache its fabric-side hooks
		// for the per-packet enqueue path.
		h := n.nics[0].cc.Hooks()
		n.wantSignals, n.wantECN = h.EndpointSignals, h.ECNMarks
	}
	// Controllers that calibrate their setpoint against the topology get a
	// quiet-RTT oracle: without it the delay-based scheme reads the base
	// RTT of a large fabric (cross-spine fat-tree paths, long Dragonfly
	// valiant detours) as standing queue and over-throttles.
	for _, nic := range n.nics {
		if cal, ok := nic.cc.(congestion.TargetCalibrator); ok {
			src, win := nic.ID, nic.cc.InitialWindow()
			cal.CalibrateTarget(func(dst topology.NodeID) sim.Time {
				return n.quietRTT(src, dst, win)
			})
		}
	}

	// port fills slot k of the port table. Slots fill in table order,
	// which is the order the ports' frame-error streams split off the
	// network's RNG.
	n.ports = make([]outPort, 2*len(topo.Links()))
	port := func(k int, o outPort) *outPort {
		o.net = n
		o.sched = qos.NewPortScheduler(n.QoS)
		if prof.FrameBER > 0 {
			o.rng = n.rng.Split()
		}
		n.ports[k] = o
		return &n.ports[k]
	}
	for i, l := range topo.Links() {
		switch l.Kind {
		case topology.EdgeLink:
			sw := n.switches[l.A]
			nic := n.nics[l.Node]
			// Switch -> NIC.
			sw.edge[int(l.Node)-sw.firstNode] = port(2*i, outPort{
				bits: prof.EdgeBits, prop: phy.EdgeDelay(), mode: edgeMode,
				peerNIC: nic, edge: true,
			})
			// NIC -> switch (the injection port), credited against the
			// switch's input buffer.
			nic.inj = port(2*i+1, outPort{
				bits: prof.EdgeBits, prop: phy.EdgeDelay(), mode: edgeMode,
				ownerNIC: nic, peerSw: sw, credits: prof.InputBufferBytes,
			})
		case topology.LocalLink, topology.GlobalLink:
			a, b := n.switches[l.A], n.switches[l.B]
			prop := phy.CopperDelay()
			global := false
			if l.Kind == topology.GlobalLink {
				prop = phy.OpticalDelay()
				global = true
			}
			ab := port(2*i, outPort{
				bits: prof.fabricBits(), prop: prop, mode: prof.FabricMode,
				peerSw: b, credits: prof.InputBufferBytes, global: global,
			})
			ba := port(2*i+1, outPort{
				bits: prof.fabricBits(), prop: prop, mode: prof.FabricMode,
				peerSw: a, credits: prof.InputBufferBytes, global: global,
			})
			ia := topo.NeighborIndex(l.A, l.B)
			ib := topo.NeighborIndex(l.B, l.A)
			a.ports[ia] = append(a.ports[ia], ab)
			b.ports[ib] = append(b.ports[ib], ba)
		}
	}
}

// SendOpts configures one message.
type SendOpts struct {
	// Class is the traffic-class index into the QoS config.
	Class int
	// NoRendezvous forces the eager protocol regardless of size.
	NoRendezvous bool
	// Tag is an arbitrary caller label (e.g. job ID) readable from taps.
	Tag int64
	// Bulk marks a steady background transfer (aggressor stream,
	// alltoall shuffle) as a candidate for the fluid fast path when the
	// network runs at FidelityHybrid. Packet-fidelity networks ignore it.
	Bulk bool
	// OnDelivered fires at the destination when the last byte lands.
	OnDelivered func(at sim.Time)
	// OnAcked fires at the source when the last end-to-end ack returns.
	OnAcked func(at sim.Time)
	// Recycle promises the caller will not retain the returned *Message
	// past its final callback: the fabric may then return the struct to
	// an internal free-list, making steady-state Send churn
	// allocation-free. Honoured on every fluid transfer; the packet path
	// ignores it.
	Recycle bool
}

// Send submits a message transfer of `bytes` from src to dst. It returns
// the message handle for inspection; completion is signalled via the
// callbacks in opts.
func (n *Network) Send(src, dst topology.NodeID, bytes int64, opts SendOpts) *Message {
	if int(src) < 0 || int(src) >= len(n.nics) || int(dst) < 0 || int(dst) >= len(n.nics) {
		panic(fmt.Sprintf("fabric: Send %d->%d outside topology", src, dst))
	}
	class := opts.Class
	if class < 0 || class >= len(n.QoS.Classes) {
		class = 0
	}
	n.msgID++
	m := n.allocMsg()
	m.ID = n.msgID
	m.Src, m.Dst = src, dst
	m.Bytes = bytes
	m.Class = class
	m.OnDelivered = opts.OnDelivered
	m.OnAcked = opts.OnAcked
	m.numPackets = ethernet.Packets(bytes, ethernet.MaxPayload)
	m.recycle = opts.Recycle
	if bytes > rendezvousThreshold && !opts.NoRendezvous {
		m.Rendezvous = true
	}
	m.Tag = opts.Tag
	if n.fid != FidelityPacket && n.flowEligible(src, dst, bytes, &opts) {
		return n.sendFlow(m)
	}
	n.nics[src].submit(m)
	return m
}

// allocMsg takes a Message off the recycle free-list, or mints one.
//
//simlint:hotpath
func (n *Network) allocMsg() *Message {
	if k := len(n.msgFree); k > 0 {
		m := n.msgFree[k-1]
		n.msgFree[k-1] = nil
		n.msgFree = n.msgFree[:k-1]
		return m
	}
	return &Message{} //simlint:allocok -- cold start; opted-in steady state recycles off the free-list
}

// freeMsg zeroes a completed opted-in message and returns it to the
// free-list. Only control-side completion paths may call this.
//
//simlint:hotpath
func (n *Network) freeMsg(m *Message) {
	*m = Message{}
	n.msgFree = append(n.msgFree, m) //simlint:retained -- this IS the message free-list, mirroring the packet one
}

// NIC returns the NIC runtime for a node (read-only use by tests).
func (n *Network) NIC(id topology.NodeID) *NIC { return n.nics[id] }

// CC returns a node's congestion controller (tests/inspection).
func (n *Network) CC(id topology.NodeID) congestion.Controller { return n.nics[id].cc }

// choosePath runs the source-switch routing decision for a packet (§II-C:
// the source switch estimates the load of candidate paths). The policy
// does the choosing; the fabric supplies the cached minimal candidates,
// the queue-depth view, and the source switch's RNG stream.
func (n *Network) choosePath(s *Switch, p *Packet) topology.Path {
	return n.route(s, p.Msg.Src, p.Msg.Dst, p.Msg.ID, p.Class)
}

// ChoosePath runs one routing decision for a flow from src to dst in the
// given class, exactly as injecting a packet would (bench/test hook). It
// consults the same policy, minimal-path cache and live load state as the
// hot path, and draws from the source switch's RNG stream — interleaving
// it with live traffic therefore perturbs replay.
func (n *Network) ChoosePath(src, dst topology.NodeID, flowID int64, class int) topology.Path {
	if class < 0 || class >= len(n.QoS.Classes) {
		class = 0
	}
	return n.route(n.switches[n.Topo.SwitchOf(src)], src, dst, flowID, class)
}

// route dispatches one routing decision through the configured policy.
//
//simlint:hotpath
func (n *Network) route(s *Switch, srcNode, dstNode topology.NodeID, flowID int64, class int) topology.Path {
	src := s.ID
	dst := n.Topo.SwitchOf(dstNode)
	if src == dst {
		return n.selfPaths[src]
	}
	bias := n.Prof.MinimalBias
	if bias < 1 {
		bias = 1
	}
	if cb := n.QoS.Classes[class].MinimalBias; cb > 1 {
		bias *= cb
	}
	// The load view and path arena are the source switch's domain: its
	// own queues read live, remote ones off the epoch snapshot (in classic
	// mode the one domain owns everything, so every read is live — the
	// pre-sharding behaviour).
	return n.Prof.Routing.Choose(n.Topo, routing.Context{
		Src: src, Dst: dst,
		SrcNode: srcNode, DstNode: dstNode,
		FlowID: flowID, Class: class,
		MinimalBias: bias,
		RouteNoise:  n.Prof.RouteNoise,
		Arena:       &s.dom.arena,
	}, n.minimalPaths(src, dst), s.dom, s.rng)
}

// linkSlots returns the network's link-slot numbering, building it on
// first use: only the sharded load snapshot and the fluid background
// table need it, so a classic packet-fidelity network never allocates it.
func (n *Network) linkSlots() []int32 {
	if n.slotBase == nil {
		n.slotBase = topology.LinkSlotBase(n.Topo)
	}
	return n.slotBase
}

// minimalPaths returns the cached minimal-path candidates between two
// distinct switches, computing them on first use. Rows are per source
// switch and lazily allocated — only ever by the domain owning the source
// switch (routing runs at the source switch; the quiet-RTT oracle runs in
// the source NIC's domain), so concurrent domains touch disjoint rows.
func (n *Network) minimalPaths(src, dst topology.SwitchID) []topology.Path {
	row := n.minPaths[src]
	if row == nil {
		row = make([][]topology.Path, n.Topo.Switches())
		n.minPaths[src] = row
	}
	ps := row[dst]
	if ps == nil {
		ps = n.Topo.MinimalPaths(src, dst, topology.RouteCandidates)
		row[dst] = ps
	}
	return ps
}

// quietRTT estimates the uncongested ack round-trip between two nodes
// with a full congestion window in flight: NIC hardware latency both
// ways, serialization of the whole window onto the edge link (the last
// packet's ack closes the loop), the mean switch traversal per hop of
// one minimal path, and the reverse-crossbar latency both directions.
// It feeds congestion.TargetCalibrator at build time and is deliberately
// path-shape only — no queue state — so the figure is deterministic and
// stable across a run.
func (n *Network) quietRTT(src, dst topology.NodeID, window int64) sim.Time {
	prof := &n.Prof
	var path topology.Path
	switches := 1
	if s, d := n.Topo.SwitchOf(src), n.Topo.SwitchOf(dst); s != d {
		if ps := n.minimalPaths(s, d); len(ps) > 0 {
			path = ps[0]
			switches = len(path)
		}
	}
	rtt := 2*nicLatency + sim.SerializationTime(window, prof.EdgeBits)
	rtt += sim.Time(switches) * rosetta.MeanTraversal(0, 2)
	rtt += 2 * n.revLatency(path)
	return rtt
}

// revLatency approximates the reverse-path delay of acknowledgements,
// grants and congestion notifications: they ride dedicated crossbars
// (§II-A) and do not contend with data, so the delay is propagation plus a
// small per-switch forwarding cost.
func (n *Network) revLatency(path topology.Path) sim.Time {
	const perSwitch = 150 * sim.Nanosecond
	lat := 2*phy.EdgeDelay() + 100*sim.Nanosecond
	if path == nil {
		return lat + perSwitch
	}
	return lat + sim.Time(len(path))*perSwitch + n.propagation(path)
}

// propagation is the wire delay along path's switch-to-switch hops:
// optical or copper per hop by the link kind, read off the built port
// tables (for the Dragonfly, the links between groups are the optical
// ones).
func (n *Network) propagation(path topology.Path) sim.Time {
	var d sim.Time
	for i := 0; i+1 < len(path); i++ {
		if n.switches[path[i]].portsTo(path[i+1])[0].global {
			d += phy.OpticalDelay()
		} else {
			d += phy.CopperDelay()
		}
	}
	return d
}

// DegradeLinkLanes removes one SerDes lane from every (parallel) link
// between two adjacent switches, in both directions — the §II-F lane
// degrade that tolerates hard lane failures by running ports at reduced
// width. It reports whether any usable lane remains.
func (n *Network) DegradeLinkLanes(a, b topology.SwitchID) bool {
	ok := false
	for _, o := range n.switches[a].portsTo(b) {
		if o.phy.DegradeLane() {
			ok = true
		}
	}
	for _, o := range n.switches[b].portsTo(a) {
		// The reverse direction's result counts too: a link with usable
		// lanes in either direction is still (partially) usable.
		if o.phy.DegradeLane() {
			ok = true
		}
	}
	return ok
}

// RestoreLinkLanes returns the links between two switches to full width.
func (n *Network) RestoreLinkLanes(a, b topology.SwitchID) {
	for _, o := range n.switches[a].portsTo(b) {
		o.phy.RestoreLanes()
	}
	for _, o := range n.switches[b].portsTo(a) {
		o.phy.RestoreLanes()
	}
}

// QueuedAtEdge reports the egress-queue depth at the switch port feeding a
// NIC — the quantity endpoint congestion control watches.
func (n *Network) QueuedAtEdge(node topology.NodeID) int64 {
	sw := n.switches[n.Topo.SwitchOf(node)]
	o := sw.edgePort(node)
	return o.queuedBytes() + o.bgQueued()
}

// RunFor advances the simulation by d.
func (n *Network) RunFor(d sim.Time) { n.RunUntil(n.Eng.Now() + d) }

// Now returns the current simulated time.
func (n *Network) Now() sim.Time { return n.Eng.Now() }
