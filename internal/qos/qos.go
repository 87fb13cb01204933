// Package qos implements Slingshot's traffic classes (§II-E of the paper):
// classes with administrator-tunable priority, a minimum bandwidth
// guarantee and a routing bias. Egress ports schedule across classes with
// strict priority between priority levels and a deficit-round-robin (DRR)
// scheduler whose quanta implement the minimum shares within a level;
// bandwidth left unallocated by the configuration is donated to the active
// class with the lowest share, reproducing the behaviour measured in
// Fig. 14.
package qos

import "fmt"

// Class is one traffic class. The zero value is a usable best-effort class.
// Senders pick a class by its index in Config.Classes.
type Class struct {
	Name     string
	Priority int     // higher value is served strictly first
	MinShare float64 // guaranteed fraction of link bandwidth [0,1]
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
	for i, cl := range c.Classes {
		if cl.MinShare < 0 || cl.MinShare > 1 {
			return fmt.Errorf("qos: class %d MinShare %v out of [0,1]", i, cl.MinShare)
		}
		sum += cl.MinShare
	}
	if sum > 1+1e-9 {
		return fmt.Errorf("qos: guaranteed minimum shares sum to %v > 1", sum)
	}
	return nil
}

// entry is one queued packet.
type entry struct {
	v    any
	wire int
}

// classQ is one traffic class's state on an egress port: its FIFO, the
// DRR deficit, and the per-Dequeue round state (whether the class has
// bytes queued and its effective share of the link this round).
type classQ struct {
	queue   []entry
	head    int // index of first live entry in queue (amortized pop)
	bytes   int64
	deficit int64
	active  bool
	share   float64
}

// PortScheduler arbitrates one egress port across traffic classes.
// It is DRR with per-round quanta proportional to each class's effective
// share, and strict priority between priority levels.
type PortScheduler struct {
	cfg     *Config
	classes []classQ // index-aligned with cfg.Classes
	rr      int      // round-robin cursor
	totalQ  int64
	count   int
}

// quantumBase is the DRR base quantum (one max-size frame).
const quantumBase = 4200

// NewPortScheduler returns a scheduler for one egress port.
func NewPortScheduler(cfg *Config) PortScheduler {
	return PortScheduler{cfg: cfg, classes: make([]classQ, len(cfg.Classes))}
}

// Enqueue appends a packet of the given wire size to a class queue.
func (s *PortScheduler) Enqueue(class, wire int, v any) {
	c := &s.classes[class]
	c.queue = append(c.queue, entry{v: v, wire: wire})
	c.bytes += int64(wire)
	s.totalQ += int64(wire)
	s.count++
}

// Len returns the number of queued packets.
func (s *PortScheduler) Len() int { return s.count }

// TotalQueuedBytes returns the bytes queued across all classes. This is the
// quantity the adaptive-routing congestion estimate reads ("the total depth
// of the request queues of each output port", §II-C).
func (s *PortScheduler) TotalQueuedBytes() int64 { return s.totalQ }

// effectiveShare sets each class's share of the link for this round: its
// MinShare, plus — for the active class with the smallest share — all
// bandwidth not guaranteed to anyone (§II-E / Fig. 14). Classes with no
// guarantee get a small epsilon so they are never starved.
func (s *PortScheduler) effectiveShare() {
	cs := s.classes
	var allocated float64
	for i, cl := range s.cfg.Classes {
		cs[i].share = cl.MinShare
		allocated += cl.MinShare
	}
	spare := 1 - allocated
	if spare > 0 {
		// Donate the spare to the active class with the lowest share.
		lowest := -1
		for i := range cs {
			if !cs[i].active {
				continue
			}
			if lowest < 0 || cs[i].share < cs[lowest].share {
				lowest = i
			}
		}
		if lowest >= 0 {
			cs[lowest].share += spare
		}
	}
	for i := range cs {
		if cs[i].active && cs[i].share < 0.01 {
			cs[i].share = 0.01
		}
	}
}

// Dequeue picks the next packet to transmit, honoring strict priority and
// DRR minimum shares. maxWire limits the packet size that can currently be
// accepted downstream (credits); pass a large value when unconstrained. It
// returns ok=false exactly when no queued class's head packet fits maxWire.
//
//simlint:hotpath
func (s *PortScheduler) Dequeue(maxWire int) (v any, wire int, class int, ok bool) {
	if s.count == 0 {
		return nil, 0, 0, false
	}
	for i := range s.classes {
		s.classes[i].active = s.classes[i].bytes > 0
	}
	s.effectiveShare()

	// Strict priority: consider priority levels from highest down.
	bestPrio := minIntQ
	for i, cl := range s.cfg.Classes {
		if s.classes[i].active && cl.Priority > bestPrio {
			bestPrio = cl.Priority
		}
	}
	for prio := bestPrio; ; {
		// DRR pass over active classes at this priority.
		served := s.drrPass(prio, maxWire)
		if served.ok {
			return served.v, served.wire, served.class, true
		}
		// Move to the next lower priority that has active classes.
		next := minIntQ
		for i, cl := range s.cfg.Classes {
			if s.classes[i].active && cl.Priority < prio && cl.Priority > next {
				next = cl.Priority
			}
		}
		if next == minIntQ {
			break
		}
		prio = next
	}
	return nil, 0, 0, false
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
func (s *PortScheduler) drrPass(prio int, maxWire int) dequeued {
	cs := s.classes
	n := len(cs)
	// Sweep the active classes, topping up deficits by one quantum between
	// sweeps, until something is served or nothing can be (credit-bound).
	// Each top-up adds at least 64 bytes of deficit to every active class,
	// so the loop is bounded by maxFrame/64 sweeps and the scheduler is
	// work-conserving even for classes with tiny shares.
	const maxSweeps = 2 + quantumBase/32
	for sweep := 0; sweep < maxSweeps; sweep++ {
		for k := 0; k < n; k++ {
			c := (s.rr + k) % n
			q := &cs[c]
			if !q.active || s.cfg.Classes[c].Priority != prio {
				continue
			}
			e := q.queue[q.head]
			if e.wire > maxWire {
				continue // credit-bound; port will retry on credit arrival
			}
			if q.deficit < int64(e.wire) {
				continue
			}
			// Serve.
			q.deficit -= int64(e.wire)
			s.popHead(c)
			s.rr = (c + 1) % n
			return dequeued{v: e.v, wire: e.wire, class: c, ok: true}
		}
		// Nothing served this sweep: check whether any class could still be
		// served after more top-ups (active, right priority, head fits).
		anyViable := false
		for c := range cs {
			q := &cs[c]
			if !q.active || s.cfg.Classes[c].Priority != prio {
				continue
			}
			if q.queue[q.head].wire <= maxWire {
				anyViable = true
				break
			}
		}
		if !anyViable {
			break
		}
		for c := range cs {
			q := &cs[c]
			if q.active && s.cfg.Classes[c].Priority == prio {
				quantum := int64(q.share * quantumBase * 2)
				if quantum < 64 {
					quantum = 64
				}
				q.deficit += quantum
				// Bound accumulated deficit so an idle class cannot
				// hoard an unbounded burst allowance.
				if q.deficit > 16*quantumBase {
					q.deficit = 16 * quantumBase
				}
			}
		}
	}
	return dequeued{}
}

func (s *PortScheduler) popHead(c int) {
	q := &s.classes[c]
	e := q.queue[q.head]
	q.queue[q.head] = entry{}
	q.head++
	q.bytes -= int64(e.wire)
	s.totalQ -= int64(e.wire)
	s.count--
	// Compact the queue once the dead prefix dominates.
	if q.head > 64 && q.head*2 >= len(q.queue) {
		q.queue = append(q.queue[:0], q.queue[q.head:]...)
		q.head = 0
	}
}
