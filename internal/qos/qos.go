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

// PortScheduler arbitrates one egress port across traffic classes.
// It is DRR with per-round quanta proportional to each class's effective
// share, and strict priority between priority levels.
type PortScheduler struct {
	cfg     *Config
	queues  [][]entry
	head    []int // index of first live entry in queues[c] (amortized pop)
	qbytes  []int64
	deficit []int64
	rr      int // round-robin cursor
	totalQ  int64
	count   int
	// Per-Dequeue scratch (the scheduler is single-threaded per network;
	// reusing these keeps the per-packet path allocation-free).
	activeBuf []bool
	shareBuf  []float64
}

// quantumBase is the DRR base quantum (one max-size frame).
const quantumBase = 4200

// NewPortScheduler returns a scheduler for one egress port.
func NewPortScheduler(cfg *Config) *PortScheduler {
	n := len(cfg.Classes)
	return &PortScheduler{
		cfg:       cfg,
		queues:    make([][]entry, n),
		head:      make([]int, n),
		qbytes:    make([]int64, n),
		deficit:   make([]int64, n),
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
	for prio := bestPrio; ; {
		// DRR pass over active classes at this priority.
		served := s.drrPass(prio, share, active, maxWire)
		if served.ok {
			return served.v, served.wire, served.class, true
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
func (s *PortScheduler) drrPass(prio int, share []float64, active []bool, maxWire int) dequeued {
	n := len(s.cfg.Classes)
	// Sweep the active classes, topping up deficits by one quantum between
	// sweeps, until something is served or nothing can be (credit-bound).
	// Each top-up adds at least 64 bytes of deficit to every active class,
	// so the loop is bounded by maxFrame/64 sweeps and the scheduler is
	// work-conserving even for classes with tiny shares.
	const maxSweeps = 2 + quantumBase/32
	for sweep := 0; sweep < maxSweeps; sweep++ {
		for k := 0; k < n; k++ {
			c := (s.rr + k) % n
			if !active[c] || s.cfg.Classes[c].Priority != prio {
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
			s.rr = (c + 1) % n
			return dequeued{v: e.v, wire: e.wire, class: c, ok: true}
		}
		// Nothing served this sweep: check whether any class could still be
		// served after more top-ups (active, right priority, head fits).
		anyViable := false
		for c := 0; c < n; c++ {
			if !active[c] || s.cfg.Classes[c].Priority != prio {
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
