package par

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// rec is a handler recording (shard, At, Arg) execution tuples into a
// shared trace. All recording happens from coordinator-sequential or
// single-shard contexts in these tests.
type rec struct {
	shard *Shard
	trace *[]trace
	// relay, when set, posts the received event onward to relay at
	// At + delay with the same Arg.
	relay *rec
	delay sim.Time
}

type trace struct {
	Shard int
	At    sim.Time
	Arg   int64
}

func (r *rec) OnEvent(e *sim.Engine, ev *sim.Event) {
	*r.trace = append(*r.trace, trace{Shard: r.shard.ID, At: ev.At, Arg: ev.Arg})
	if e.Now() != ev.At {
		panic("handler ran off its timestamp")
	}
	if r.relay != nil {
		r.shard.Post(r.relay.shard, ev.At+r.delay, r.relay, ev.Arg, nil)
	}
}

// ringStopper is a Hooks implementation that severs every relay once an
// epoch ends past the deadline, letting a relay ring wind down.
type ringStopper struct {
	recs  []*rec
	after sim.Time
}

func (h *ringStopper) OnShard(*Shard) {}
func (h *ringStopper) OnEpoch(limit sim.Time) {
	if limit > h.after {
		for i := range h.recs {
			h.recs[i].relay = nil
		}
	}
}

// newRig builds k shards with a shared trace and a coordinator at the
// given lookahead and worker count.
func newRig(k int, look sim.Time, workers int) ([]*Shard, []*rec, *[]trace, *Coordinator) {
	tr := &[]trace{}
	shards := make([]*Shard, k)
	recs := make([]*rec, k)
	for i := range shards {
		shards[i] = NewShard(i, sim.NewEngine(), k)
		recs[i] = &rec{shard: shards[i], trace: tr}
	}
	c := New(shards, nil, look, workers)
	return shards, recs, tr, c
}

func TestCrossShardLandsAtItsTimestamp(t *testing.T) {
	const look = 150 * sim.Nanosecond
	shards, recs, tr, c := newRig(2, look, 1)
	// A local event on shard 0 at t=10ns relays to shard 1 at +look.
	recs[0].relay, recs[0].delay = recs[1], look
	shards[0].Eng.Schedule(10*sim.Nanosecond, recs[0], 7, nil)
	c.Run()
	want := []trace{
		{Shard: 0, At: 10 * sim.Nanosecond, Arg: 7},
		{Shard: 1, At: 160 * sim.Nanosecond, Arg: 7},
	}
	if !reflect.DeepEqual(*tr, want) {
		t.Fatalf("trace = %+v, want %+v", *tr, want)
	}
}

// TestCrossShardEpochPlacement drives epochs one step at a time and
// checks a cross-shard event is invisible to the destination until the
// barrier, then lands in the epoch its timestamp falls into.
func TestCrossShardEpochPlacement(t *testing.T) {
	const look = 100 * sim.Nanosecond
	shards, recs, tr, c := newRig(2, look, 1)
	recs[0].relay, recs[0].delay = recs[1], look
	shards[0].Eng.Schedule(0, recs[0], 1, nil)

	// Epoch 1 covers [0, look): only the shard-0 event runs; the relayed
	// event sits in the mailbox, not yet in shard 1's engine.
	if !c.step(sim.Forever) {
		t.Fatal("no first epoch")
	}
	if got := len(*tr); got != 1 {
		t.Fatalf("after epoch 1: %d events ran, want 1", got)
	}
	if n := shards[1].Eng.Pending(); n != 0 {
		t.Fatalf("after epoch 1: dst engine holds %d events, want it still in the mailbox", n)
	}
	if n := len(shards[0].out[1]); n != 1 {
		t.Fatalf("after epoch 1: mailbox holds %d events, want 1", n)
	}
	// Epoch 2 runs the relayed event at exactly t=look.
	if !c.step(sim.Forever) {
		t.Fatal("no second epoch")
	}
	want := []trace{{Shard: 0, At: 0, Arg: 1}, {Shard: 1, At: look, Arg: 1}}
	if !reflect.DeepEqual(*tr, want) {
		t.Fatalf("trace = %+v, want %+v", *tr, want)
	}
}

// TestMailboxCanonicalMerge posts same-timestamp events from two source
// shards out of worker order and checks the destination runs them in
// (At, source shard, post index) order.
func TestMailboxCanonicalMerge(t *testing.T) {
	const look = 100 * sim.Nanosecond
	shards, recs, tr, c := newRig(3, look, 1)
	at := 2 * look
	// Posts interleave sources deliberately: src 1 then 0 then 1; within
	// a source, ascending post index rides Arg's low digits.
	shards[1].Post(shards[2], at, recs[2], 110, nil)
	shards[0].Post(shards[2], at, recs[2], 100, nil)
	shards[1].Post(shards[2], at, recs[2], 111, nil)
	shards[0].Post(shards[2], at+1, recs[2], 200, nil)
	shards[0].Post(shards[2], at, recs[2], 101, nil)
	c.Run()
	want := []trace{
		{Shard: 2, At: at, Arg: 100}, // src 0, post 0
		{Shard: 2, At: at, Arg: 101}, // src 0, post 1
		{Shard: 2, At: at, Arg: 110}, // src 1, post 0
		{Shard: 2, At: at, Arg: 111}, // src 1, post 1
		{Shard: 2, At: at + 1, Arg: 200},
	}
	if !reflect.DeepEqual(*tr, want) {
		t.Fatalf("trace = %+v, want %+v", *tr, want)
	}
}

// TestDeterminismAcrossWorkerCounts runs a ring of relaying shards at 1
// and 4 workers and requires byte-identical traces. Workers mutate only
// their claimed shard, and the shared trace is only written by shard 0
// in this rig (all events funnel there), so the trace order is exactly
// the engine's deterministic execution order.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	const look = 50 * sim.Nanosecond
	run := func(workers int) []trace {
		shards, recs, tr, c := newRig(4, look, workers)
		// Every shard relays to the next; only shard 0 records (the
		// others' recs relay without racing on the trace): give shards
		// 1..3 a private trace each.
		for i := 1; i < 4; i++ {
			priv := &[]trace{}
			recs[i] = &rec{shard: shards[i], trace: priv}
		}
		for i := range recs {
			recs[i].relay = recs[(i+1)%4]
			recs[i].delay = look
		}
		for i := 0; i < 8; i++ {
			shards[0].Eng.Schedule(sim.Time(i)*sim.Nanosecond, recs[0], int64(i), nil)
		}
		// Stop the ring after a while: cap each event's hop count by
		// dropping the relay once time passes 20*look.
		c.Hooks = &ringStopper{recs: recs, after: 20 * look}
		c.Run()
		return *tr
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("workers=1 and workers=4 diverge:\n1: %+v\n4: %+v", one, four)
	}
	if len(one) == 0 {
		t.Fatal("no events ran")
	}
}

func TestControlEngineInterleaves(t *testing.T) {
	const look = 100 * sim.Nanosecond
	shards, recs, tr, c := newRig(1, look, 1)
	ctl := sim.NewEngine()
	c.Control = ctl
	var ctlAt []sim.Time
	ctl.ScheduleFunc(30*sim.Nanosecond, func() { ctlAt = append(ctlAt, ctl.Now()) })
	shards[0].Eng.Schedule(40*sim.Nanosecond, recs[0], 1, nil)
	c.RunUntil(sim.Microsecond)
	if len(*tr) != 1 || len(ctlAt) != 1 || ctlAt[0] != 30*sim.Nanosecond {
		t.Fatalf("trace=%+v ctlAt=%v", *tr, ctlAt)
	}
	if now := ctl.Now(); now != sim.Microsecond {
		t.Fatalf("control clock = %v, want the deadline", now)
	}
	if now := shards[0].Eng.Now(); now != sim.Microsecond {
		t.Fatalf("shard clock = %v, want the deadline", now)
	}
}

func TestRunWhileStopsBetweenEpochs(t *testing.T) {
	const look = 100 * sim.Nanosecond
	shards, recs, tr, c := newRig(2, look, 1)
	recs[0].relay, recs[0].delay = recs[1], look
	shards[0].Eng.Schedule(0, recs[0], 1, nil)
	n := 0
	c.RunWhile(func() bool { n++; return len(*tr) == 0 })
	if len(*tr) != 1 {
		t.Fatalf("ran %d events, want exactly the first epoch's 1", len(*tr))
	}
	if n < 2 {
		t.Fatalf("cond evaluated %d times, want before and after the epoch", n)
	}
}

// TestPoolTeardownLeavesNoGoroutines drives many empty runs on a pooled
// coordinator. Each drive call must take its workers down with it, even a
// worker first scheduled after the call already returned, so the
// goroutine count settles back to its baseline.
func TestPoolTeardownLeavesNoGoroutines(t *testing.T) {
	_, _, _, c := newRig(4, 100*sim.Nanosecond, 4)
	base := runtime.NumGoroutine()
	for i := 0; i < 2000; i++ {
		c.RunWhile(func() bool { return false })
	}
	// A worker that has signalled its exit may still be unwinding, so
	// wait (bounded) for the count to settle rather than sampling once.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 2000 empty runs, want the baseline %d",
				runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestLookaheadViolationPanics(t *testing.T) {
	shards, recs, _, c := newRig(2, 100*sim.Nanosecond, 1)
	// A handler that posts into the current epoch (below the fence).
	bad := badPoster{src: shards[0], dst: shards[1], h: recs[1]}
	shards[0].Eng.Schedule(0, &bad, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a cross-shard post below the epoch fence")
		}
	}()
	c.Run()
}

type badPoster struct {
	src, dst *Shard
	h        sim.Handler
}

func (b *badPoster) OnEvent(_ *sim.Engine, ev *sim.Event) {
	b.src.Post(b.dst, ev.At+1, b.h, 0, nil) // +1ps, far below any sane lookahead
}

// TestMailboxReuseNoAllocs checks the exchange path allocates nothing in
// steady state: after a warm-up epoch, posting and draining the same
// volume reuses mailbox and merge-buffer capacity.
func TestMailboxReuseNoAllocs(t *testing.T) {
	const look = 100 * sim.Nanosecond
	shards, recs, tr, c := newRig(2, look, 1)
	post := func() {
		at := shards[0].Eng.Now() + look
		for i := 0; i < 32; i++ {
			shards[0].Post(shards[1], at, recs[1], int64(i), nil)
		}
	}
	post()
	c.Run() // warm-up: grows mailbox, merge buffer, engine free-list
	ran := 0
	allocs := testing.AllocsPerRun(10, func() {
		*tr = (*tr)[:0] // keep the recorder's capacity out of the count
		post()
		c.Run()
		ran += len(*tr)
	})
	if allocs > 0 {
		t.Fatalf("exchange path allocates %.1f/run in steady state, want 0", allocs)
	}
	if ran == 0 {
		t.Fatal("steady-state runs recorded nothing")
	}
}
