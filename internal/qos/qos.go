// Package qos implements Slingshot's traffic classes (§II-E of the paper):
// DSCP-tagged classes with administrator-tunable priority, minimum
// bandwidth guarantee, maximum bandwidth cap, ordering and lossiness flags,
// and a routing bias. Egress ports schedule across classes with a
// deficit-round-robin (DRR) scheduler whose quanta implement the minimum
// shares; bandwidth left unallocated by the configuration is donated to the
// active class with the lowest share, reproducing the behaviour measured in
// Fig. 14.
package qos

import (
	"fmt"

	"repro/internal/ethernet"
	"repro/internal/sim"
)

// Class is one traffic class. The zero value is a usable best-effort class.
type Class struct {
	Name     string
	DSCP     ethernet.DSCP // codepoint that selects this class
	Priority int           // higher value is served strictly first
	MinShare float64       // guaranteed fraction of link bandwidth [0,1]
	MaxShare float64       // cap fraction; 0 means uncapped
	Ordered  bool          // require in-order delivery (restricts adaptive routing)
	Lossy    bool          // packets may be dropped instead of back-pressured
	// MinimalBias nudges adaptive routing towards minimal paths for this
	// class (1 = default bias, >1 = stronger preference for minimal).
	MinimalBias float64
}

// Config is the set of traffic classes configured on a system.
type Config struct {
	Classes []Class
}

// DefaultConfig returns a single best-effort class, the state of a system
// where no job asked for QoS.
func DefaultConfig() *Config {
	return &Config{Classes: []Class{{Name: "best-effort", MinimalBias: 1}}}
}

// Validate checks the administrator invariant from §II-E: the guaranteed
// minimum bandwidths must not exceed the available bandwidth.
func (c *Config) Validate() error {
	if len(c.Classes) == 0 {
		return fmt.Errorf("qos: no traffic classes")
	}
	var sum float64
	seen := make(map[ethernet.DSCP]bool)
	for i, cl := range c.Classes {
		if cl.MinShare < 0 || cl.MinShare > 1 {
			return fmt.Errorf("qos: class %d MinShare %v out of [0,1]", i, cl.MinShare)
		}
		if cl.MaxShare < 0 || cl.MaxShare > 1 {
			return fmt.Errorf("qos: class %d MaxShare %v out of [0,1]", i, cl.MaxShare)
		}
		if cl.MaxShare > 0 && cl.MaxShare < cl.MinShare {
			return fmt.Errorf("qos: class %d MaxShare < MinShare", i)
		}
		if seen[cl.DSCP] {
			return fmt.Errorf("qos: duplicate DSCP %d", cl.DSCP)
		}
		seen[cl.DSCP] = true
		sum += cl.MinShare
	}
	if sum > 1+1e-9 {
		return fmt.Errorf("qos: guaranteed minimum shares sum to %v > 1", sum)
	}
	return nil
}

// ClassByDSCP returns the index of the class handling the codepoint, or 0
// (the first class) when no class matches — unclassified traffic shares
// the dynamically allocated remainder (§II-E).
func (c *Config) ClassByDSCP(d ethernet.DSCP) int {
	for i, cl := range c.Classes {
		if cl.DSCP == d {
			return i
		}
	}
	return 0
}

// entry is one queued packet.
type entry struct {
	v    any
	wire int
}

// PortScheduler arbitrates one egress port across traffic classes.
// It is DRR with per-round quanta proportional to each class's effective
// share, strict priority between priority levels, and token-bucket caps
// for MaxShare.
type PortScheduler struct {
	cfg      *Config
	linkBits int64
	queues   [][]entry
	head     []int // index of first live entry in queues[c] (amortized pop)
	qbytes   []int64
	deficit  []int64
	rr       int // round-robin cursor
	// MaxShare token buckets.
	sent       []int64
	bucketFrom sim.Time
	totalQ     int64
	count      int
	// Per-Dequeue scratch (the scheduler is single-threaded per network;
	// reusing these keeps the per-packet path allocation-free).
	activeBuf []bool
	shareBuf  []float64
}

// quantumBase is the DRR base quantum (one max-size frame).
const quantumBase = 4200

// NewPortScheduler returns a scheduler for a port of the given bandwidth.
func NewPortScheduler(cfg *Config, linkBits int64) *PortScheduler {
	n := len(cfg.Classes)
	return &PortScheduler{
		cfg:       cfg,
		linkBits:  linkBits,
		queues:    make([][]entry, n),
		head:      make([]int, n),
		qbytes:    make([]int64, n),
		deficit:   make([]int64, n),
		sent:      make([]int64, n),
		activeBuf: make([]bool, n),
		shareBuf:  make([]float64, n),
	}
}

// Enqueue appends a packet of the given wire size to a class queue.
func (s *PortScheduler) Enqueue(class, wire int, v any) {
	s.queues[class] = append(s.queues[class], entry{v: v, wire: wire})
	s.qbytes[class] += int64(wire)
	s.totalQ += int64(wire)
	s.count++
}

// Len returns the number of queued packets.
func (s *PortScheduler) Len() int { return s.count }

// QueuedBytes returns the bytes queued in one class.
func (s *PortScheduler) QueuedBytes(class int) int64 { return s.qbytes[class] }

// TotalQueuedBytes returns the bytes queued across all classes. This is the
// quantity the adaptive-routing congestion estimate reads ("the total depth
// of the request queues of each output port", §II-C).
func (s *PortScheduler) TotalQueuedBytes() int64 { return s.totalQ }

// effectiveShare computes each class's share of the link for this round:
// its MinShare, plus — for the active class with the smallest share — all
// bandwidth not guaranteed to anyone (§II-E / Fig. 14). Classes with no
// guarantee get a small epsilon so they are never starved.
func (s *PortScheduler) effectiveShare(active []bool) []float64 {
	share := s.shareBuf
	var allocated float64
	for i, cl := range s.cfg.Classes {
		share[i] = cl.MinShare
		allocated += cl.MinShare
	}
	spare := 1 - allocated
	if spare > 0 {
		// Donate the spare to the active class with the lowest share.
		lowest := -1
		for i := range share {
			if !active[i] {
				continue
			}
			if lowest < 0 || share[i] < share[lowest] {
				lowest = i
			}
		}
		if lowest >= 0 {
			share[lowest] += spare
		}
	}
	for i := range share {
		if active[i] && share[i] < 0.01 {
			share[i] = 0.01
		}
	}
	return share
}

// capBlocked reports whether class c is over its MaxShare token budget at
// time now, and if so when it becomes eligible again.
func (s *PortScheduler) capBlocked(c int, now sim.Time) (bool, sim.Time) {
	maxShare := s.cfg.Classes[c].MaxShare
	if maxShare <= 0 {
		return false, 0
	}
	elapsed := now - s.bucketFrom
	// Allow a one-frame burst so the cap cannot deadlock the port.
	budget := int64(float64(s.linkBits/8)*maxShare*elapsed.Seconds()) + quantumBase
	if s.sent[c] < budget {
		return false, 0
	}
	// Time until the bucket refills enough for the next frame.
	deficit := float64(s.sent[c] - budget + quantumBase)
	wait := sim.FromSeconds(deficit / (float64(s.linkBits/8) * maxShare))
	if wait < sim.Nanosecond {
		wait = sim.Nanosecond
	}
	return true, now + wait
}

// Dequeue picks the next packet to transmit at time now, honoring strict
// priority, DRR minimum shares, and MaxShare caps. maxWire limits the
// packet size that can currently be accepted downstream (credits); pass a
// large value when unconstrained. It returns ok=false when nothing is
// eligible; retry is then the earliest time a cap unblocks (zero when the
// scheduler is simply empty or credit-bound).
//
//simlint:hotpath
func (s *PortScheduler) Dequeue(now sim.Time, maxWire int) (v any, wire int, class int, ok bool, retry sim.Time) {
	if s.count == 0 {
		return nil, 0, 0, false, 0
	}
	active := s.activeBuf
	for i := range active {
		active[i] = s.qbytes[i] > 0
	}
	share := s.effectiveShare(active)

	// Strict priority: consider priority levels from highest down.
	bestPrio := minIntQ
	for i, cl := range s.cfg.Classes {
		if active[i] && cl.Priority > bestPrio {
			bestPrio = cl.Priority
		}
	}
	var earliest sim.Time
	for prio := bestPrio; ; {
		// DRR pass over active classes at this priority.
		served := s.drrPass(now, prio, share, active, maxWire, &earliest)
		if served.ok {
			return served.v, served.wire, served.class, true, 0
		}
		// Move to the next lower priority that has active classes.
		next := minIntQ
		for i, cl := range s.cfg.Classes {
			if active[i] && cl.Priority < prio && cl.Priority > next {
				next = cl.Priority
			}
		}
		if next == minIntQ {
			break
		}
		prio = next
	}
	return nil, 0, 0, false, earliest
}

const minIntQ = -1 << 31

type dequeued struct {
	v     any
	wire  int
	class int
	ok    bool
}

// drrPass attempts one deficit-round-robin selection among the active
// classes at the given priority level.
func (s *PortScheduler) drrPass(now sim.Time, prio int, share []float64, active []bool, maxWire int, earliest *sim.Time) dequeued {
	n := len(s.cfg.Classes)
	// Sweep the active classes, topping up deficits by one quantum between
	// sweeps, until something is served or nothing can be (cap-blocked or
	// credit-bound). Each top-up adds at least 64 bytes of deficit to every
	// active class, so the loop is bounded by maxFrame/64 sweeps and the
	// scheduler is work-conserving even for classes with tiny shares.
	const maxSweeps = 2 + quantumBase/32
	for sweep := 0; sweep < maxSweeps; sweep++ {
		for k := 0; k < n; k++ {
			c := (s.rr + k) % n
			if !active[c] || s.cfg.Classes[c].Priority != prio {
				continue
			}
			if blocked, at := s.capBlocked(c, now); blocked {
				if *earliest == 0 || at < *earliest {
					*earliest = at
				}
				continue
			}
			e := s.queues[c][s.head[c]]
			if e.wire > maxWire {
				continue // credit-bound; port will retry on credit arrival
			}
			if s.deficit[c] < int64(e.wire) {
				continue
			}
			// Serve.
			s.deficit[c] -= int64(e.wire)
			s.popHead(c)
			s.sent[c] += int64(e.wire)
			s.rr = (c + 1) % n
			return dequeued{v: e.v, wire: e.wire, class: c, ok: true}
		}
		// Nothing served this sweep: check whether any class could still be
		// served after more top-ups (active, right priority, not blocked).
		anyViable := false
		for c := 0; c < n; c++ {
			if !active[c] || s.cfg.Classes[c].Priority != prio {
				continue
			}
			if blocked, _ := s.capBlocked(c, now); blocked {
				continue
			}
			if s.queues[c][s.head[c]].wire <= maxWire {
				anyViable = true
				break
			}
		}
		if !anyViable {
			break
		}
		for c := 0; c < n; c++ {
			if active[c] && s.cfg.Classes[c].Priority == prio {
				q := int64(share[c] * quantumBase * 2)
				if q < 64 {
					q = 64
				}
				s.deficit[c] += q
				// Bound accumulated deficit so an idle class cannot
				// hoard an unbounded burst allowance.
				if s.deficit[c] > 16*quantumBase {
					s.deficit[c] = 16 * quantumBase
				}
			}
		}
	}
	return dequeued{}
}

func (s *PortScheduler) popHead(c int) {
	e := s.queues[c][s.head[c]]
	s.queues[c][s.head[c]] = entry{}
	s.head[c]++
	s.qbytes[c] -= int64(e.wire)
	s.totalQ -= int64(e.wire)
	s.count--
	// Compact the queue once the dead prefix dominates.
	if s.head[c] > 64 && s.head[c]*2 >= len(s.queues[c]) {
		s.queues[c] = append(s.queues[c][:0], s.queues[c][s.head[c]:]...)
		s.head[c] = 0
	}
}

// PeekSource lets the fabric inspect queued packets (e.g. to find the
// sources contributing to endpoint congestion, §II-D). fn is called for
// every queued packet until it returns false.
func (s *PortScheduler) PeekSource(fn func(v any) bool) {
	for c := range s.queues {
		for i := s.head[c]; i < len(s.queues[c]); i++ {
			if !fn(s.queues[c][i].v) {
				return
			}
		}
	}
}
