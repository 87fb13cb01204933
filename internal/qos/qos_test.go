package qos

import (
	"testing"

	"repro/internal/sim"
)

// newScheduler returns the scheduler of a one-port fabric.
func newScheduler(cfg *Config) PortScheduler {
	ps := NewPortSchedulers(cfg, 1)
	return ps.Next()
}

func twoClasses(min1, min2 float64) *Config {
	return &Config{Classes: []Class{
		{Name: "tc1", MinShare: min1, MinimalBias: 1},
		{Name: "tc2", MinShare: min2, MinimalBias: 1},
	}}
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := twoClasses(0.8, 0.1).Validate(); err != nil {
		t.Errorf("80/10 invalid: %v", err)
	}
	bad := []*Config{
		{},
		twoClasses(0.8, 0.3),  // sums over 1
		twoClasses(-0.1, 0.1), // negative
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestFIFOWithinClass(t *testing.T) {
	s := newScheduler(DefaultConfig())
	for i := 0; i < 10; i++ {
		s.Enqueue(0, 100, i)
	}
	for i := 0; i < 10; i++ {
		v, wire, class, ok := s.Dequeue(1 << 30)
		if !ok || v.(int) != i || wire != 100 || class != 0 {
			t.Fatalf("dequeue %d: v=%v wire=%d class=%d ok=%v", i, v, wire, class, ok)
		}
	}
	if _, _, _, ok := s.Dequeue(1 << 30); ok {
		t.Error("empty scheduler returned a packet")
	}
}

func TestQueuedBytesAccounting(t *testing.T) {
	s := newScheduler(twoClasses(0.5, 0.2))
	s.Enqueue(0, 1000, "a")
	s.Enqueue(1, 500, "b")
	s.Enqueue(1, 500, "c")
	if s.TotalQueuedBytes() != 2000 || s.Len() != 3 {
		t.Fatalf("totals: %d bytes, %d packets", s.TotalQueuedBytes(), s.Len())
	}
	_, wire, _, _ := s.Dequeue(1 << 30)
	if s.TotalQueuedBytes() != 2000-int64(wire) || s.Len() != 2 {
		t.Errorf("after dequeuing %d bytes: %d bytes, %d packets", wire, s.TotalQueuedBytes(), s.Len())
	}
}

// Drain a backlog of both classes and confirm DRR approximates the
// configured shares (Fig. 14: 80% vs 10%+spare -> 80/20 split).
func TestDRRShares(t *testing.T) {
	s := newScheduler(twoClasses(0.8, 0.1))
	const wire = 4158
	for i := 0; i < 4000; i++ {
		s.Enqueue(0, wire, "tc1")
		s.Enqueue(1, wire, "tc2")
	}
	sent := [2]int64{}
	var total int64
	for total < 1000*wire {
		_, w, class, ok := s.Dequeue(1 << 30)
		if !ok {
			t.Fatal("scheduler stalled with backlog")
		}
		sent[class] += int64(w)
		total += int64(w)
	}
	frac1 := float64(sent[0]) / float64(total)
	if frac1 < 0.75 || frac1 > 0.85 {
		t.Errorf("tc1 share = %.3f, want ~0.8", frac1)
	}
	frac2 := float64(sent[1]) / float64(total)
	if frac2 < 0.15 || frac2 > 0.25 {
		t.Errorf("tc2 share = %.3f, want ~0.2 (0.1 min + 0.1 spare)", frac2)
	}
}

// A class alone on the port gets all the bandwidth regardless of its share
// (work conservation; Fig. 14 ramp after job 1 finishes).
func TestWorkConservation(t *testing.T) {
	s := newScheduler(twoClasses(0.8, 0.1))
	for i := 0; i < 100; i++ {
		s.Enqueue(1, 4158, i)
	}
	for i := 0; i < 100; i++ {
		v, _, _, ok := s.Dequeue(1 << 30)
		if !ok {
			t.Fatalf("stalled at %d with lone low-share class", i)
		}
		if v.(int) != i {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func TestStrictPriority(t *testing.T) {
	cfg := &Config{Classes: []Class{
		{Name: "low", Priority: 0, MinimalBias: 1},
		{Name: "high", Priority: 5, MinimalBias: 1},
	}}
	s := newScheduler(cfg)
	for i := 0; i < 10; i++ {
		s.Enqueue(0, 100, "low")
		s.Enqueue(1, 100, "high")
	}
	// All high-priority packets must drain before any low-priority one.
	for i := 0; i < 10; i++ {
		v, _, _, ok := s.Dequeue(1 << 30)
		if !ok || v.(string) != "high" {
			t.Fatalf("dequeue %d = %v, want high", i, v)
		}
	}
	v, _, _, ok := s.Dequeue(1 << 30)
	if !ok || v.(string) != "low" {
		t.Fatalf("low class starved: %v", v)
	}
}

func TestCreditBoundDequeue(t *testing.T) {
	s := newScheduler(DefaultConfig())
	s.Enqueue(0, 5000, "big")
	s.Enqueue(0, 5000, "big2")
	// Insufficient credit: nothing eligible.
	if _, _, _, ok := s.Dequeue(100); ok {
		t.Fatal("credit-bound dequeue returned a packet")
	}
	// With credit it flows.
	v, _, _, ok := s.Dequeue(5000)
	if !ok || v.(string) != "big" {
		t.Fatalf("dequeue with credit failed: %v", v)
	}
}

func TestCompaction(t *testing.T) {
	// Heavy enqueue/dequeue cycles must not leak (head compaction).
	s := newScheduler(DefaultConfig())
	for round := 0; round < 100; round++ {
		for i := 0; i < 200; i++ {
			s.Enqueue(0, 64, i)
		}
		for i := 0; i < 200; i++ {
			if _, _, _, ok := s.Dequeue(1 << 30); !ok {
				t.Fatal("stalled")
			}
		}
	}
	if s.Len() != 0 || s.TotalQueuedBytes() != 0 {
		t.Errorf("leftover: len=%d bytes=%d", s.Len(), s.TotalQueuedBytes())
	}
}

// TestDequeueProperties checks the two properties an egress port relies
// on, over random class configurations, enqueues and credit limits: with
// no other wake-up than enqueue, transmit-done, credit return and the
// watchdog, Dequeue must serve whenever some queued class's head packet
// fits maxWire (ok is exactly that), and the packet it serves is the
// head of a fitting class no other fitting class outranks in priority.
func TestDequeueProperties(t *testing.T) {
	rng := sim.NewRNG(14)
	type pkt struct{ id, wire int }
	for trial := 0; trial < 300; trial++ {
		cfg := &Config{Classes: make([]Class, 1+rng.Intn(4))}
		left := 1.0
		for i := range cfg.Classes {
			share := 0.0
			if rng.Intn(3) > 0 {
				share = left * rng.Float64()
				left -= share
			}
			cfg.Classes[i] = Class{Priority: 5 * rng.Intn(2), MinShare: share, MinimalBias: 1}
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: generated an invalid config: %v", trial, err)
		}
		s := newScheduler(cfg)
		model := make([][]pkt, len(cfg.Classes)) // per-class FIFO shadow
		next := 0
		for op := 0; op < 400; op++ {
			if rng.Intn(2) == 0 {
				c, wire := rng.Intn(len(model)), 64+rng.Intn(4158-64+1)
				s.Enqueue(c, wire, next)
				model[c] = append(model[c], pkt{next, wire})
				next++
				continue
			}
			maxWire := rng.Intn(8192 + 1)
			fits := func(c int) bool { return len(model[c]) > 0 && model[c][0].wire <= maxWire }
			anyFits := false
			for c := range model {
				anyFits = anyFits || fits(c)
			}
			v, wire, class, ok := s.Dequeue(maxWire)
			if ok != anyFits {
				t.Fatalf("trial %d op %d: Dequeue(%d) ok=%v, want %v (queues %v, classes %+v)",
					trial, op, maxWire, ok, anyFits, model, cfg.Classes)
			}
			if !ok {
				continue
			}
			if !fits(class) || v.(int) != model[class][0].id || wire != model[class][0].wire {
				t.Fatalf("trial %d op %d: served %v (%d B) from class %d, want that class's fitting head %v",
					trial, op, v, wire, class, model[class])
			}
			for c := range model {
				if fits(c) && cfg.Classes[c].Priority > cfg.Classes[class].Priority {
					t.Fatalf("trial %d op %d: served class %d (priority %d) over fitting class %d (priority %d)",
						trial, op, class, cfg.Classes[class].Priority, c, cfg.Classes[c].Priority)
				}
			}
			model[class] = model[class][1:]
		}
	}
}
