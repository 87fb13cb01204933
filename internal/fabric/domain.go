package fabric

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/sim/par"
	"repro/internal/topology"
)

// Counters are the fabric-wide delivery and reliability statistics. The
// Network embeds one (so n.PacketsDelivered keeps reading naturally); in
// sharded mode every domain accumulates into a private block that the
// epoch barrier folds into the Network's, so handlers never contend on
// shared words and the fold order is fixed (domain order) for any worker
// count.
type Counters struct {
	PacketsDelivered int64
	BytesDelivered   int64
	Signals          int64 // Slingshot back-pressure notifications emitted
	Overdrafts       int64 // deadlock-escape credit grants (should be ~0)
	LLRRetries       int64 // link-level retransmissions (FrameBER > 0)
	FramesLost       int64 // frames lost on links without LLR
	E2ERetries       int64 // NIC end-to-end retransmissions
}

func (c *Counters) add(o *Counters) {
	c.PacketsDelivered += o.PacketsDelivered
	c.BytesDelivered += o.BytesDelivered
	c.Signals += o.Signals
	c.Overdrafts += o.Overdrafts
	c.LLRRetries += o.LLRRetries
	c.FramesLost += o.FramesLost
	c.E2ERetries += o.E2ERetries
}

// domain is one shard of the fabric: a topology partition's switches,
// NICs and ports under their own engine, own packet free-list, own
// routing arena and own counters. In classic (single-threaded) mode the
// whole fabric is one domain whose engine IS Network.Eng and whose
// counters ARE the Network's — the pre-sharding data flow, bit for bit.
//
// Every fabric component (Switch, NIC, outPort) carries its domain
// pointer; handlers reach the clock and scheduler through it, so the
// same handler code runs under one engine or many.
type domain struct {
	id  int
	net *Network
	eng *sim.Engine
	// sh is the domain's mailbox shard; nil in classic mode (and then
	// every component shares this one domain, so post never needs it).
	sh *par.Shard
	// ctr is where this domain's handlers count: the Network's embedded
	// block in classic mode, the private block below when sharded.
	ctr      *Counters
	counters Counters
	// arena is the domain's private path-construction scratch: domains
	// route concurrently over the shared immutable topology, each in its
	// own arena.
	arena topology.PathArena
	// pktFree recycles Packet structs within the domain. Packets are
	// allocated in the source NIC's domain and released wherever they
	// terminate, so a cross-domain packet retires into the delivering
	// domain's list — the lists exchange capacity instead of leaking.
	pktFree []*Packet
	// defr queues completion callbacks and delivery taps raised during a
	// parallel epoch; the barrier flushes them sequentially on the
	// control engine in canonical (at, domain, index) order.
	defr []deferredCall
	// switches are the domain's own switches, for the per-epoch load
	// snapshot refresh.
	switches []*Switch
}

// post schedules (h, arg, data) at absolute time at on the component
// domain dst: straight onto the engine when dst is this domain (always,
// in classic mode), through the epoch mailboxes otherwise.
//
//simlint:hotpath
func (d *domain) post(dst *domain, at sim.Time, h sim.Handler, arg int64, data any) {
	if dst == d {
		d.eng.Schedule(at, h, arg, data)
		return
	}
	d.sh.Post(dst.sh, at, h, arg, data)
}

// allocPacket returns a zeroed packet from the domain free-list (or a
// fresh one).
//
//simlint:hotpath
func (d *domain) allocPacket() *Packet {
	if k := len(d.pktFree); k > 0 {
		p := d.pktFree[k-1]
		d.pktFree[k-1] = nil
		d.pktFree = d.pktFree[:k-1]
		return p
	}
	return &Packet{} //simlint:allocok -- cold start; steady state recycles off the free-list
}

// freePacket recycles a terminated packet. Callers must guarantee no
// live references remain (delivery taps run before release and must not
// retain the packet). The struct is zeroed here, not at alloc, so idle
// free-list entries do not pin their last Message (and its completion
// closures) or Path.
//
//simlint:hotpath
func (d *domain) freePacket(p *Packet) {
	*p = Packet{}
	d.pktFree = append(d.pktFree, p) //simlint:retained -- this IS the packet free-list: the one sanctioned retention point (see freelist analyzer)
}

// deferredCall is one completion callback (fn set) or delivery tap (fn
// nil, pkt holds a copy) raised inside a parallel epoch and replayed
// sequentially at the barrier.
type deferredCall struct {
	at  sim.Time
	fn  func(at sim.Time)
	pkt Packet
}

// deferCall queues a completion callback for the epoch barrier.
//
//simlint:hotpath
func (d *domain) deferCall(at sim.Time, fn func(at sim.Time)) {
	d.defr = append(d.defr, deferredCall{at: at, fn: fn}) //simlint:allocok -- amortized growth; the flush keeps capacity
}

// deferTap queues a delivery-tap invocation for the epoch barrier. The
// packet is copied: the original recycles onto the free-list immediately.
//
//simlint:hotpath
func (d *domain) deferTap(at sim.Time, p *Packet) {
	d.defr = append(d.defr, deferredCall{at: at, pkt: *p}) //simlint:allocok -- amortized growth; the flush keeps capacity
}

// QueuedTo implements routing.LoadReader for routing decisions made
// inside this domain: egress queues of the domain's own switches read
// live (exact, as in classic mode), remote switches read the epoch-start
// snapshot — the sharded analogue of §II-C's stale remote congestion
// estimates arriving via piggyback channels.
//
//simlint:hotpath
func (d *domain) QueuedTo(a, b topology.SwitchID) int64 {
	n := d.net
	slot := n.Topo.Slot(a, b)
	var q int64
	if n.switches[a].dom == d {
		_, q = leastLoaded(n.slotPorts[slot])
	} else {
		q = n.snap[slot]
	}
	if n.flowBG != nil {
		// Fluid background load: written only between epochs on the
		// control engine (see flowTicker), so shard-time reads here can
		// never observe a torn or mid-publication value — the same
		// barrier discipline as the snapshot above.
		q += n.flowBG[slot]
	}
	return q
}

// refreshSnapshot republishes this domain's switch loads into the shared
// epoch-start snapshot. It runs in the drain phase (every domain writes
// only its own rows; the barrier publishes them), so within an epoch
// every remote load estimate is a consistent, worker-count-independent
// photograph.
//
//simlint:hotpath
func (d *domain) refreshSnapshot() {
	n := d.net
	for _, s := range d.switches {
		lo, hi := n.Topo.SlotBase(s.ID), n.Topo.SlotBase(s.ID+1)
		for i, ports := range n.slotPorts[lo:hi] {
			_, n.snap[lo+i] = leastLoaded(ports)
		}
	}
}

// defrMerge adapts the gathered deferred calls to sort.Interface through
// a persistent struct (no per-epoch boxing). Sorting by at alone is
// stable over the (domain, index) gather order — the canonical replay
// order.
type defrMerge struct{ d []deferredCall }

func (b *defrMerge) Len() int           { return len(b.d) }
func (b *defrMerge) Less(i, j int) bool { return b.d[i].at < b.d[j].at }
func (b *defrMerge) Swap(i, j int)      { b.d[i], b.d[j] = b.d[j], b.d[i] }

// foldCounters drains every domain's private counter block into the
// Network's embedded one, in domain order.
func (n *Network) foldCounters() {
	for _, d := range n.doms {
		n.Counters.add(&d.counters)
		d.counters = Counters{}
	}
}

// flushDeferred replays the epoch's deferred completion callbacks and
// taps sequentially, in canonical (at, domain, index) order, advancing
// the control engine to each callback's timestamp first so workload code
// running inside a callback (collective schedulers, measurement probes)
// reads the correct Now() and interleaves with its own queued events.
func (n *Network) flushDeferred() {
	buf := n.defrBuf.d[:0]
	for _, d := range n.doms {
		if len(d.defr) == 0 {
			continue
		}
		buf = append(buf, d.defr...)
		for i := range d.defr {
			d.defr[i] = deferredCall{}
		}
		d.defr = d.defr[:0]
	}
	if len(buf) > 1 {
		n.defrBuf.d = buf
		sort.Stable(&n.defrBuf)
	}
	for i := range buf {
		dc := &buf[i]
		n.Eng.RunUntil(dc.at)
		if dc.fn != nil {
			dc.fn(dc.at)
		} else if tap := n.Taps.OnPacketDelivered; tap != nil {
			tap(&dc.pkt, dc.at)
		}
		*dc = deferredCall{}
	}
	n.defrBuf.d = buf[:0]
}

// initDomains splits the built switches and NICs into their topology
// partition's domains and stands up the epoch coordinator; buildPorts
// then puts each port in its transmitter's domain. workers bounds the
// goroutine budget only — the decomposition is the topology's natural
// one regardless, so Domains=1 and Domains=N run the identical
// computation and produce byte-identical output.
func (n *Network) initDomains(workers int) {
	part := n.Topo.Partition()
	k := part.Domains
	n.doms = make([]*domain, k)
	shards := make([]*par.Shard, k)
	for i := 0; i < k; i++ {
		d := &domain{id: i, net: n, eng: sim.NewEngine()}
		d.ctr = &d.counters
		shards[i] = par.NewShard(i, d.eng, k)
		d.sh = shards[i]
		n.doms[i] = d
	}
	for _, s := range n.switches {
		d := n.doms[part.Of[s.ID]]
		s.dom = d
		d.switches = append(d.switches, s)
	}
	for _, nic := range n.nics {
		nic.dom = n.switches[n.Topo.SwitchOf(nic.ID)].dom
	}
	// The remote-load snapshot: one entry per link slot.
	n.snap = make([]int64, n.Topo.SlotBase(topology.SwitchID(len(n.switches))))

	n.par = par.New(shards, n.Eng, part.MinCutLatency, workers)
	n.par.Hooks = n
}

// OnShard implements par.Hooks: inside the drain phase, the shard's
// owning domain refreshes its rows of the cross-domain load snapshot
// (disjoint writes; the epoch barrier orders them before any read).
func (n *Network) OnShard(s *par.Shard) { n.doms[s.ID].refreshSnapshot() }

// OnEpoch implements par.Hooks: on quiesced, sequential state, fold the
// per-domain counters into the embedded block, then flush the deferred
// completion callbacks in canonical order.
func (n *Network) OnEpoch(limit sim.Time) {
	n.foldCounters()
	n.flushDeferred()
}

// initClassic wires the whole fabric as one domain over Network.Eng —
// the single-threaded mode, preserving the pre-sharding event flow
// exactly (no coordinator, no mailboxes, live load reads, inline
// callbacks).
func (n *Network) initClassic() {
	d := &domain{id: 0, net: n, eng: n.Eng, ctr: &n.Counters, switches: n.switches}
	n.doms = []*domain{d}
	for _, s := range n.switches {
		s.dom = d
	}
	for _, nic := range n.nics {
		nic.dom = d
	}
}

// Domains reports the simulation's domain count: 1 in classic mode, the
// topology's natural unit count when sharded.
func (n *Network) Domains() int { return len(n.doms) }

// Workers reports the parallel worker budget (1 in classic mode).
func (n *Network) Workers() int {
	if n.par == nil {
		return 1
	}
	return n.par.Workers()
}

// Run executes the simulation until every engine and mailbox drains.
func (n *Network) Run() {
	if n.par != nil {
		n.par.Run()
		return
	}
	n.Eng.Run()
}

// RunUntil executes all events with At <= deadline and advances every
// clock to the deadline.
func (n *Network) RunUntil(deadline sim.Time) {
	if n.par != nil {
		n.par.RunUntil(deadline)
		return
	}
	n.Eng.RunUntil(deadline)
}

// RunWhile executes events while cond() holds. In sharded mode cond is
// evaluated between epochs, on quiesced sequential state.
func (n *Network) RunWhile(cond func() bool) {
	if n.par != nil {
		n.par.RunWhile(cond)
		return
	}
	n.Eng.RunWhile(cond)
}
