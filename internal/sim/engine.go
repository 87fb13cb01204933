package sim

import "math/bits"

// Handler is the closure-free event callback: the engine dispatches every
// event to its handler's OnEvent with the event itself, whose Arg and Data
// words carry per-event context. Handlers are typically pointer aliases of
// the simulation object that owns the event (e.g. a NIC or port), so
// steady-state scheduling allocates nothing: the handler word in the
// interface is just the object pointer, and the Event struct comes from
// the engine's free-list.
type Handler interface {
	OnEvent(e *Engine, ev *Event)
}

// Event is a scheduled callback. Events are ordered by time; ties are broken
// by insertion order so the simulation is fully deterministic.
//
// Lifetime: the engine recycles Event structs through a deterministic
// free-list (no sync.Pool — the engine is single-threaded). An *Event
// returned by Schedule/After is valid until its handler has run or it
// has been cancelled; after that the engine may reuse the struct for a
// future Schedule, so holders must drop their pointer (the idiomatic
// pattern is to nil the field as the first statement of the handler).
type Event struct {
	At Time
	// Arg is one scalar word of handler context (a byte count, a packed
	// flag, ...). Data is one pointer word (a *Packet, *Message, func, ...);
	// pointer-shaped values box into it without allocating.
	Arg  int64
	Data any

	h   Handler
	seq int64

	// Queue bookkeeping: an event lives either in the operating heap
	// (heapIdx >= 0) or in a wheel bucket's intrusive list (slot >= 0);
	// fired, cancelled and free events have both at -1.
	heapIdx    int
	slot       int32
	next, prev *Event
}

// Cancelled reports whether the event has been removed from the queue
// (fired or cancelled).
func (e *Event) Cancelled() bool { return e.heapIdx < 0 && e.slot < 0 }

// The hierarchical timing wheel. Level-0 buckets are one tick wide
// (2^granBits picoseconds ≈ 16 ns, a fraction of one cell serialization
// time on a 200 Gb/s link); each higher level is wheelSize× coarser, so
// the six levels ladder out to ~18 simulated minutes. Events beyond that
// horizon sit in an unsorted overflow list until the wheels drain.
//
// These are the wheel's granularity knobs: granBits trades level-0
// precision (how many distinct timestamps share an operating-heap batch)
// against rotation frequency, and levelBits×wheelLevels set the horizon.
const (
	granBits    = 14 // level-0 tick = 2^14 ps ≈ 16.4 ns
	levelBits   = 6  // 64 buckets per level → one uint64 occupancy word
	wheelSize   = 1 << levelBits
	wheelMask   = wheelSize - 1
	wheelLevels = 6

	overflowSlot = wheelLevels * wheelSize
	numSlots     = overflowSlot + 1
)

// bucket is one wheel slot: an intrusive doubly-linked FIFO of events.
type bucket struct{ head, tail *Event }

// Engine is a single-threaded discrete-event scheduler built on a
// hierarchical timing wheel. It is not safe for concurrent use; the whole
// simulator runs in one goroutine, which on the target (CPU-bound,
// deterministic replay) is both simplest and fastest.
//
// Ordering is exact: events execute in strictly non-decreasing (At, seq)
// order, identical to a single global priority queue. The wheel only
// changes *where* pending events wait — far timers sit in O(1) buckets
// instead of churning a big binary heap — and the operating heap `cur`
// holds just the events of the current tick, so its depth stays tiny.
type Engine struct {
	now    Time
	seq    int64
	nsteps int64
	count  int // queued events across cur + wheels + overflow

	// curTick is the wheel position: every queued event with
	// At>>granBits <= curTick is in cur (the operating heap, ordered by
	// (At, seq)); later events wait in wheel buckets or overflow.
	curTick int64
	cur     []*Event
	buckets [numSlots]bucket
	occ     [wheelLevels]uint64 // per-level bucket occupancy bitmaps

	// free recycles fired/cancelled events; the hot path allocates no
	// Event structs once the simulation reaches steady state.
	free []*Event
}

// NewEngine returns an engine positioned at the simulation epoch.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far (useful for perf
// accounting in benchmarks).
func (e *Engine) Steps() int64 { return e.nsteps }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.count }

// NextAt returns the timestamp of the earliest queued event. ok is false
// when the queue is empty. Peeking may rotate the wheel (relocating
// events) but never executes anything, so it is safe to call between
// epochs of a bounded run.
func (e *Engine) NextAt() (at Time, ok bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.At, true
}

// Schedule queues h to run at absolute time at, with arg and data stored
// on the event for the handler to read. Scheduling in the past (before
// Now) is clamped to Now; this happens only from handlers that compute a
// zero/negative delay and is harmless because tie-breaking keeps
// execution order deterministic. The returned event may be cancelled.
//
//simlint:hotpath
func (e *Engine) Schedule(at Time, h Handler, arg int64, data any) *Event {
	if at < e.now {
		at = e.now
	}
	ev := e.alloc()
	ev.At, ev.h, ev.Arg, ev.Data = at, h, arg, data
	ev.seq = e.seq
	e.seq++
	e.count++
	e.insert(ev)
	return ev
}

// After queues h to run delay after the current time.
func (e *Engine) After(delay Time, h Handler, arg int64, data any) *Event {
	return e.Schedule(e.now+delay, h, arg, data)
}

// funcRunner adapts a plain func() to the Handler interface for the
// ScheduleFunc/AfterFunc shims (tests, examples, one-off setup events).
type funcRunner struct{}

func (funcRunner) OnEvent(_ *Engine, ev *Event) { ev.Data.(func())() }

var runFunc Handler = funcRunner{}

// ScheduleFunc queues a plain closure at absolute time at. It is a thin
// shim over Schedule for call sites where a closure allocation per event
// does not matter (tests, examples, experiment setup); hot paths use
// static Handler implementations instead.
func (e *Engine) ScheduleFunc(at Time, fn func()) *Event {
	return e.Schedule(at, runFunc, 0, fn)
}

// AfterFunc queues a plain closure delay after the current time.
func (e *Engine) AfterFunc(delay Time, fn func()) *Event {
	return e.Schedule(e.now+delay, runFunc, 0, fn)
}

// Cancel removes a queued event and recycles it. Cancelling an
// already-run or already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	switch {
	case ev == nil:
		return
	case ev.heapIdx >= 0:
		e.heapRemove(ev.heapIdx)
	case ev.slot >= 0:
		e.unlink(ev)
	default:
		return
	}
	e.count--
	e.release(ev)
}

// Step runs the earliest event. It reports false when the queue is empty.
//
//simlint:hotpath
func (e *Engine) Step() bool {
	if e.count == 0 {
		return false
	}
	if len(e.cur) == 0 {
		e.advance()
	}
	ev := e.heapPopMin()
	e.now = ev.At
	e.nsteps++
	e.count--
	ev.h.OnEvent(e, ev)
	// Recycle after the handler: any holder following the contract has
	// dropped its pointer by now (handlers nil their field first).
	e.release(ev)
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with At <= deadline, then advances the clock to
// the deadline (if the simulation got that far). Events scheduled later
// remain queued. The drain loop re-peeks after every step, so events at
// exactly At == deadline scheduled *by* a deadline-time handler still run
// before the clock settles.
func (e *Engine) RunUntil(deadline Time) {
	for {
		ev := e.peek()
		if ev == nil || ev.At > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunWhile executes events while cond() holds and the queue is non-empty.
// cond is checked before each event.
func (e *Engine) RunWhile(cond func() bool) {
	for e.count > 0 && cond() {
		e.Step()
	}
}

// peek returns the earliest queued event without running it, advancing the
// wheel if the operating heap is empty (advancing only relocates events,
// never executes them).
func (e *Engine) peek() *Event {
	if e.count == 0 {
		return nil
	}
	if len(e.cur) == 0 {
		e.advance()
	}
	return e.cur[0]
}

// alloc takes an event from the free-list or allocates a fresh one.
func (e *Engine) alloc() *Event {
	if k := len(e.free); k > 0 {
		ev := e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
		return ev
	}
	return &Event{heapIdx: -1, slot: -1}
}

// release returns an event to the free-list, dropping its handler and
// payload so the referenced state becomes collectable.
func (e *Engine) release(ev *Event) {
	ev.h = nil
	ev.Data = nil
	ev.next = nil
	ev.prev = nil
	e.free = append(e.free, ev)
}

// insert places a queued event: current-tick events go straight into the
// operating heap; later ones into the finest wheel level whose window
// contains them; events beyond the top-level horizon into overflow.
func (e *Engine) insert(ev *Event) {
	t := int64(ev.At) >> granBits
	if t <= e.curTick {
		e.heapPush(ev)
		return
	}
	for l := 0; l < wheelLevels; l++ {
		// The event fits level l when it shares curTick's level-(l+1)
		// parent bucket.
		if t>>uint((l+1)*levelBits) == e.curTick>>uint((l+1)*levelBits) {
			idx := (t >> uint(l*levelBits)) & wheelMask
			e.pushBucket(int32(l*wheelSize)+int32(idx), ev)
			e.occ[l] |= 1 << uint(idx)
			return
		}
	}
	e.pushBucket(overflowSlot, ev)
}

// pushBucket appends ev to a wheel slot's FIFO.
func (e *Engine) pushBucket(slot int32, ev *Event) {
	ev.slot = slot
	ev.heapIdx = -1
	b := &e.buckets[slot]
	ev.prev = b.tail
	ev.next = nil
	if b.tail != nil {
		b.tail.next = ev
	} else {
		b.head = ev
	}
	b.tail = ev
}

// unlink removes ev from its wheel slot, clearing the occupancy bit when
// the bucket empties (advance relies on exact bitmaps).
func (e *Engine) unlink(ev *Event) {
	b := &e.buckets[ev.slot]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		b.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		b.tail = ev.prev
	}
	if b.head == nil && ev.slot < overflowSlot {
		l := int(ev.slot) >> levelBits
		e.occ[l] &^= 1 << uint(int(ev.slot)&wheelMask)
	}
	ev.slot = -1
	ev.next = nil
	ev.prev = nil
}

// takeBucket detaches and returns a slot's whole chain.
func (e *Engine) takeBucket(slot int32) *Event {
	b := &e.buckets[slot]
	head := b.head
	b.head, b.tail = nil, nil
	if slot < overflowSlot {
		l := int(slot) >> levelBits
		e.occ[l] &^= 1 << uint(int(slot)&wheelMask)
	}
	return head
}

// advance moves the wheel forward to the next occupied tick and pours that
// tick's events into the operating heap. Callers guarantee count > 0.
func (e *Engine) advance() {
	for len(e.cur) == 0 {
		// Next occupied level-0 bucket strictly after curTick in the
		// current window. (uint64(2)<<63 wraps to 0, so idx==63 correctly
		// yields an empty mask.)
		idx := uint(e.curTick & wheelMask)
		if m := e.occ[0] &^ (uint64(2)<<idx - 1); m != 0 {
			b := int64(bits.TrailingZeros64(m))
			e.curTick = e.curTick&^int64(wheelMask) | b
			for ev := e.takeBucket(int32(b)); ev != nil; {
				next := ev.next
				e.heapPush(ev)
				ev = next
			}
			return
		}
		if e.cascade() {
			continue
		}
		e.promoteOverflow()
	}
}

// cascade finds the first occupied bucket at the coarser levels, jumps
// curTick to the start of its span, and redistributes its events into
// finer levels (or the operating heap for the span's first tick). It
// reports false when every wheel level ahead of curTick is empty.
func (e *Engine) cascade() bool {
	for l := 1; l < wheelLevels; l++ {
		shift := uint(l * levelBits)
		idx := uint((e.curTick >> shift) & wheelMask)
		// The bucket containing curTick itself was redistributed when the
		// wheel entered its span, so scan strictly after it.
		m := e.occ[l] &^ (uint64(2)<<idx - 1)
		if m == 0 {
			continue
		}
		b := int64(bits.TrailingZeros64(m))
		base := (e.curTick>>shift)&^int64(wheelMask) | b
		e.curTick = base << shift
		for ev := e.takeBucket(int32(l*wheelSize) + int32(b)); ev != nil; {
			next := ev.next
			e.insert(ev)
			ev = next
		}
		return true
	}
	return false
}

// promoteOverflow is reached when the operating heap and every wheel level
// are empty but events remain: they are all in the overflow list, beyond
// the wheels' horizon. Jump curTick to the earliest of them and re-insert
// the whole list against the new position.
func (e *Engine) promoteOverflow() {
	head := e.takeBucket(overflowSlot)
	minTick := int64(head.At) >> granBits
	for ev := head.next; ev != nil; ev = ev.next {
		if t := int64(ev.At) >> granBits; t < minTick {
			minTick = t
		}
	}
	e.curTick = minTick
	for ev := head; ev != nil; {
		next := ev.next
		e.insert(ev)
		ev = next
	}
}

// The operating heap: a hand-rolled binary min-heap over (At, seq). It
// holds only the events of the current tick (≈16 ns of simulated time),
// so it stays a handful of entries deep instead of the whole event
// population — that, plus avoiding container/heap's interface calls, is
// where the wheel's speedup over the old global heap comes from.

func evLess(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *Event) {
	ev.slot = -1
	ev.heapIdx = len(e.cur)
	e.cur = append(e.cur, ev)
	e.siftUp(ev.heapIdx)
}

func (e *Engine) heapPopMin() *Event {
	h := e.cur
	ev := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.cur = h[:n]
	if n > 0 {
		h[0] = last
		last.heapIdx = 0
		e.siftDown(0)
	}
	ev.heapIdx = -1
	return ev
}

func (e *Engine) heapRemove(i int) {
	h := e.cur
	ev := h[i]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.cur = h[:n]
	if i < n {
		h[i] = last
		last.heapIdx = i
		e.siftDown(i)
		if last.heapIdx == i {
			e.siftUp(i)
		}
	}
	ev.heapIdx = -1
}

func (e *Engine) siftUp(i int) {
	h := e.cur
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].heapIdx = i
		i = p
	}
	h[i] = ev
	ev.heapIdx = i
}

func (e *Engine) siftDown(i int) {
	h := e.cur
	n := len(h)
	ev := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && evLess(h[c+1], h[c]) {
			c++
		}
		if !evLess(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].heapIdx = i
		i = c
	}
	h[i] = ev
	ev.heapIdx = i
}
