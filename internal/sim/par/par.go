// Package par implements the domain-sharded conservative parallel
// driver over sim.Engine. A fabric is partitioned into shards, each
// owning one engine (with its timing wheel and free-lists intact) and a
// disjoint slice of the simulated state. Shards advance in lock-step
// epochs bounded by the minimum cross-shard event latency — the
// conservative lookahead: every event one shard schedules on another
// lands at least one lookahead window in the future, so a shard can run
// a whole window without observing its peers.
//
// Cross-shard events travel through preallocated per-pair mailboxes.
// During an epoch each shard appends its outbound events to the mailbox
// of the destination shard; at the epoch barrier every shard drains the
// mailboxes addressed to it, merging the inbound events in the canonical
// (At, source shard, post index) order before scheduling them on its own
// engine. The merge order — not the goroutine interleaving — decides the
// engine's tie-breaking sequence numbers, so a run is byte-identical for
// any worker count, including one.
//
// The coordinator also owns an optional control engine: the
// single-threaded engine the harness schedules workload and measurement
// events on. It advances sequentially after each epoch's barriers, so
// all control-side code observes a quiesced fabric.
package par

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Msg is one cross-shard event in flight through a mailbox: the absolute
// timestamp, the closure-free handler, and the engine's two payload
// words. Pointer-shaped data boxes into the interface without
// allocating, and the slices carrying Msgs are reused epoch over epoch,
// so the steady-state exchange path allocates nothing.
type Msg struct {
	At   sim.Time
	H    sim.Handler
	Arg  int64
	Data any
}

// Shard is one domain of the partitioned simulation: its engine plus the
// outbound mailboxes towards every other shard. All mutation of a
// shard's engine and outboxes happens either from the shard's own epoch
// phase or from the coordinator's sequential sections; the epoch
// barriers order the two.
type Shard struct {
	// ID is the shard's dense index; the canonical merge order of
	// simultaneous cross-shard events is (At, source ID, post index).
	ID int
	// Eng is the shard's own engine: private timing wheel, private
	// Event free-list, private (At, seq) tie-breaking.
	Eng *sim.Engine

	// fence is the exclusive end of the current epoch: cross-shard posts
	// below it would have to land in the past of a peer that already ran
	// that window, so Post panics on them (a lookahead violation is a
	// model bug, never a recoverable condition).
	fence sim.Time
	// out[dst] buffers this shard's posts towards shard dst within the
	// current epoch, in post order. Drained (and truncated, capacity
	// kept) by dst at the barrier.
	out [][]Msg
	// inbox is the reusable merge buffer for draining.
	inbox msgBuf
}

// NewShard returns a shard with mailboxes towards `shards` peers.
func NewShard(id int, eng *sim.Engine, shards int) *Shard {
	return &Shard{ID: id, Eng: eng, out: make([][]Msg, shards)}
}

// Post schedules (h, arg, data) at absolute time at on shard dst.
// Same-shard posts go straight to the engine; cross-shard posts append
// to the per-pair mailbox and are merged into dst's engine at the next
// epoch barrier. at must be at or beyond the current epoch fence — the
// conservative-lookahead contract.
//
//simlint:hotpath
func (s *Shard) Post(dst *Shard, at sim.Time, h sim.Handler, arg int64, data any) {
	if dst == s {
		s.Eng.Schedule(at, h, arg, data)
		return
	}
	if at < s.fence {
		panic("par: cross-shard post below the epoch fence (lookahead violated)")
	}
	s.out[dst.ID] = append(s.out[dst.ID], Msg{At: at, H: h, Arg: arg, Data: data})
}

// drain merges every peer's mailbox addressed to this shard into the
// shard's engine. Appending in source-ID order and then stable-sorting
// by At alone yields the canonical (At, source, post index) order; the
// engine's monotonic sequence numbers then pin the tie-breaks
// identically for every worker count. Drained mailboxes are zeroed (the
// Data words must not pin dead objects) and truncated with their
// capacity kept.
//
//simlint:hotpath
func (s *Shard) drain(all []*Shard) {
	buf := s.inbox.m[:0]
	for _, src := range all {
		in := src.out[s.ID]
		if len(in) == 0 {
			continue
		}
		buf = append(buf, in...) //simlint:allocok -- buf is the shard's reusable inbox; growth is amortized and capacity is kept
		for i := range in {
			in[i] = Msg{}
		}
		src.out[s.ID] = in[:0]
	}
	if len(buf) > 1 {
		s.inbox.m = buf
		sort.Stable(&s.inbox)
	}
	for i := range buf {
		m := &buf[i]
		s.Eng.Schedule(m.At, m.H, m.Arg, m.Data)
		*m = Msg{}
	}
	s.inbox.m = buf[:0]
}

// pendingMin folds the earliest timestamp waiting in this shard's
// outboxes into (best, ok) — posts made from sequential (control-side)
// code sit in mailboxes until the next barrier and must count as pending
// work, or a drive call could quiesce with events still queued.
func (s *Shard) pendingMin(best sim.Time, ok bool) (sim.Time, bool) {
	for _, box := range s.out {
		for i := range box {
			if at := box[i].At; !ok || at < best {
				best, ok = at, true
			}
		}
	}
	return best, ok
}

// msgBuf adapts a Msg slice to sort.Interface through a persistent
// struct, so sorting boxes no slice header per epoch.
type msgBuf struct{ m []Msg }

func (b *msgBuf) Len() int           { return len(b.m) }
func (b *msgBuf) Less(i, j int) bool { return b.m[i].At < b.m[j].At }
func (b *msgBuf) Swap(i, j int)      { b.m[i], b.m[j] = b.m[j], b.m[i] }

// Hooks receives the coordinator's per-epoch callbacks. An interface —
// rather than func fields — so the call graph from the epoch phases to
// the fabric's implementations stays statically visible (simlint's
// spine analysis links interface dispatch soundly; calls through plain
// func values resolve to nothing).
type Hooks interface {
	// OnShard runs for every shard inside the drain phase, right after
	// the shard drained its mailboxes — shard-parallel per-epoch work
	// (the fabric refreshes its cross-domain load snapshot here).
	OnShard(*Shard)
	// OnEpoch runs sequentially after the run barrier with the epoch's
	// inclusive end, before the control engine advances — the fabric
	// folds per-domain counters and flushes deferred completion
	// callbacks here.
	OnEpoch(limit sim.Time)
}

// Coordinator drives a set of shards (plus an optional control engine)
// in lock-step conservative epochs.
type Coordinator struct {
	Shards []*Shard
	// Control is the sequential engine for workload/measurement events
	// (the harness-facing engine). It advances after each epoch's
	// barriers. May be nil.
	Control *sim.Engine
	// Look is the conservative lookahead: the minimum latency of any
	// cross-shard event. Epochs span at most Look, so no shard can ever
	// receive an event in its own past.
	Look sim.Time

	// Hooks, when set, receives the per-epoch callbacks. May be nil.
	Hooks Hooks

	workers int
	// Worker-pool state: a phase is dispatched by storing its code and
	// bounds (a code, not a closure: the per-epoch phases must not
	// allocate), resetting the claim cursor and handing one token per
	// worker; the WaitGroup is the barrier. Tokens and the WaitGroup
	// give the happens-before edges between one epoch's run-phase writes
	// and the next epoch's drain-phase reads.
	phase  int
	limit  sim.Time
	fence  sim.Time
	cursor atomic.Int64
	start  chan struct{}
	wg     sync.WaitGroup
}

// Phase codes for runPhase.
const (
	phaseDrain = iota // drain mailboxes + Hooks.OnShard
	phaseRun          // set the fence, run the window
)

// New returns a coordinator over the shards. workers is the goroutine
// budget for the parallel phases, clamped to [1, len(shards)]; the
// decomposition is fixed by the caller, so the worker count changes
// wall-clock time and nothing else.
func New(shards []*Shard, control *sim.Engine, look sim.Time, workers int) *Coordinator {
	if look <= 0 {
		panic("par: lookahead must be positive")
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers < 1 {
		workers = 1
	}
	return &Coordinator{Shards: shards, Control: control, Look: look, workers: workers}
}

// Workers reports the parallel-phase goroutine budget.
func (c *Coordinator) Workers() int { return c.workers }

// nextAt returns the earliest pending timestamp across every shard
// engine, the control engine, and any undrained mailbox.
func (c *Coordinator) nextAt() (sim.Time, bool) {
	var best sim.Time
	ok := false
	if c.Control != nil {
		best, ok = c.Control.NextAt()
	}
	for _, s := range c.Shards {
		if at, o := s.Eng.NextAt(); o && (!ok || at < best) {
			best, ok = at, true
		}
		best, ok = s.pendingMin(best, ok)
	}
	return best, ok
}

// step runs one epoch: the drain phase (every shard merges the mailboxes
// addressed to it, then runs Hooks.OnShard), the barrier, the run phase
// (every shard runs its window), the barrier, then the sequential OnEpoch hook
// and the control engine. Draining leads the window so a cross-shard
// event runs in the epoch its timestamp falls into — the previous
// epoch's run barrier orders the posts before this epoch's drains. step
// reports false — running nothing — when no work remains at or before
// deadline.
func (c *Coordinator) step(deadline sim.Time) bool {
	next, ok := c.nextAt()
	if !ok || next > deadline {
		return false
	}
	limit := next + c.Look - 1
	if limit > deadline {
		limit = deadline
	}
	c.limit, c.fence = limit, limit+1
	c.each(phaseDrain)
	c.each(phaseRun)
	if h := c.Hooks; h != nil {
		h.OnEpoch(limit)
	}
	if c.Control != nil {
		c.Control.RunUntil(limit)
	}
	return true
}

// runPhase executes the current phase on one shard. It is the per-epoch
// dispatch loop of the parallel driver — a spine root alongside
// Engine.Step/Schedule (the simlint call-graph analysis anchors the
// mailbox exchange path here).
//
//simlint:hotpath
func (c *Coordinator) runPhase(s *Shard) {
	switch c.phase {
	case phaseDrain:
		s.drain(c.Shards)
		if h := c.Hooks; h != nil {
			h.OnShard(s)
		}
	case phaseRun:
		s.fence = c.fence
		s.Eng.RunUntil(c.limit)
	}
}

// Run executes epochs until every engine and mailbox drains.
func (c *Coordinator) Run() {
	c.withPool(func() {
		for c.step(sim.Forever) {
		}
	})
}

// RunUntil executes epochs for all events with At <= deadline, then
// advances every clock to the deadline — the sharded equivalent of
// Engine.RunUntil.
func (c *Coordinator) RunUntil(deadline sim.Time) {
	c.withPool(func() {
		for c.step(deadline) {
		}
	})
	for _, s := range c.Shards {
		s.Eng.RunUntil(deadline)
	}
	if c.Control != nil {
		c.Control.RunUntil(deadline)
	}
}

// RunWhile executes epochs while cond() holds and events remain. cond is
// evaluated between epochs — on quiesced, sequential state — so a
// condition flipped by a deferred completion callback stops the run at
// the epoch that flushed it.
func (c *Coordinator) RunWhile(cond func() bool) {
	c.withPool(func() {
		for cond() && c.step(sim.Forever) {
		}
	})
}

// withPool runs f with the worker pool up, tearing it down after. The
// pool lives only inside a drive call: teardown waits for every worker
// to exit, so an idle coordinator holds no goroutines.
func (c *Coordinator) withPool(f func()) {
	if c.workers <= 1 || c.start != nil {
		f()
		return
	}
	start := make(chan struct{}, c.workers)
	c.start = start
	var exited sync.WaitGroup
	exited.Add(c.workers)
	for i := 0; i < c.workers; i++ {
		go func() {
			defer exited.Done()
			c.work(start)
		}()
	}
	defer func() {
		close(start)
		exited.Wait()
		c.start = nil
	}()
	f()
}

// each runs the given phase over every shard: inline when
// single-threaded, else fanned out over the worker pool with an atomic
// claim cursor. It returns only when every shard finished — the epoch
// barrier.
func (c *Coordinator) each(phase int) {
	c.phase = phase
	if c.start == nil {
		for _, s := range c.Shards {
			c.runPhase(s)
		}
		return
	}
	c.cursor.Store(0)
	c.wg.Add(c.workers)
	for i := 0; i < c.workers; i++ {
		c.start <- struct{}{}
	}
	c.wg.Wait()
}

// work is one pool worker: per token, claim shards off the cursor until
// none remain, then report the barrier. It takes the token channel as an
// argument rather than reading c.start, which teardown clears — possibly
// before a late-scheduled worker first looks.
func (c *Coordinator) work(start <-chan struct{}) {
	for range start {
		n := int64(len(c.Shards))
		for {
			i := c.cursor.Add(1) - 1
			if i >= n {
				break
			}
			c.runPhase(c.Shards[i])
		}
		c.wg.Done()
	}
}
