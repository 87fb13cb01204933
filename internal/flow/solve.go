package flow

import (
	"sort"

	"repro/internal/sim"
)

// completionEps absorbs float rounding when deciding a flow has drained:
// the per-step deltas are exact to ~1e-5 bytes at simulation magnitudes,
// so a hundredth of a byte is safely past any residue.
const completionEps = 0.01

// solve brings every active flow's rate up to date with the dirty set
// changes: a full progressive fill when no valid solution exists yet (or
// forceFull reference mode), otherwise an incremental re-fill of the
// affected component only. Both paths run the same fill kernel over a
// canonically id-ordered working set, so their results are bit-identical.
//
//simlint:hotpath
func (e *Engine) solve() {
	e.solves++
	e.dirty = false
	if e.forceFull || !e.solved {
		e.solveFull()
	} else {
		e.solveIncremental()
	}
	e.dirtySegs = e.dirtySegs[:0]
	e.dirtyGen++
}

// solveFull re-solves from scratch: clear the previous solution and fill
// over the entire active set.
//
//simlint:hotpath
func (e *Engine) solveFull() {
	for _, s := range e.rated {
		e.segs[s].rate = 0
		e.segs[s].inRated = false
	}
	e.rated = e.rated[:0]
	e.order = append(e.order[:0], e.active...)
	e.sortOrder()
	e.fill()
	e.solved = true
}

// solveIncremental expands the affected component — segments reachable
// from the dirty seeds through shared-flow adjacency — and re-fills only
// its flows. Flows outside the component share no segment with anything
// that changed (transitively), so the max–min allocation of their own
// component, and hence their rates, are provably identical to a full
// re-solve; the previous solution stands for them.
//
//simlint:hotpath
func (e *Engine) solveIncremental() {
	if len(e.dirtySegs) == 0 {
		return
	}
	e.stamp++
	e.comp = e.comp[:0]
	for _, s := range e.dirtySegs {
		if e.segs[s].stamp != e.stamp {
			e.segs[s].stamp = e.stamp
			e.comp = append(e.comp, s)
		}
	}
	e.visit++
	e.order = e.order[:0]
	for qi := 0; qi < len(e.comp); qi++ {
		for _, me := range e.segs[e.comp[qi]].memb {
			f := me.f
			if f.mark == e.visit {
				continue
			}
			f.mark = e.visit
			e.order = append(e.order, f)
			for _, s2 := range f.segs {
				if e.segs[s2].stamp != e.stamp {
					e.segs[s2].stamp = e.stamp
					e.comp = append(e.comp, s2)
				}
			}
		}
	}
	// Reset the component's segment rates (orphaned seeds — segments a
	// finished flow vacated — drop to zero here); fill re-exports the
	// component flows' contributions.
	for _, s := range e.comp {
		e.segs[s].rate = 0
	}
	e.sortOrder()
	e.fill()
}

// sortOrder puts the fill working set into canonical flow-id order
// through the persistent sorter (no per-solve boxing).
//
//simlint:hotpath
func (e *Engine) sortOrder() {
	e.sorter.f = e.order
	sort.Sort(&e.sorter)
	e.sorter.f = nil
}

// fill assigns every flow in e.order its max–min fair rate by progressive
// filling: repeatedly find the segment with the smallest fair share
// (residual capacity / unfixed flows), fix that share for its flows, and
// subtract them from every segment they cross. All iteration is in slice
// order (over the id-sorted working set) on engine-owned scratch, so the
// result is deterministic — and independent of which superset of
// components the working set spans, which is what makes the incremental
// solve exact. Callers must have zeroed the rate of every segment the
// working set touches. Every filled flow is re-projected at its new rate.
//
//simlint:hotpath
func (e *Engine) fill() {
	if len(e.order) == 0 {
		return
	}

	// Stamp the touched segment set and count flows per segment.
	e.stamp++
	e.touched = e.touched[:0]
	for _, f := range e.order {
		f.rate = -1
		for _, s := range f.segs {
			if sg := &e.segs[s]; sg.stamp != e.stamp {
				sg.stamp = e.stamp
				sg.slot = int32(len(e.touched))
				e.touched = append(e.touched, s)
			}
		}
	}
	ns := len(e.touched)
	e.resid = grow(e.resid, ns)
	e.unfixed = grow32(e.unfixed, ns)
	e.csrStart = grow32(e.csrStart, ns+1)
	e.csrPos = grow32(e.csrPos, ns)
	for i, s := range e.touched {
		e.resid[i] = e.segs[s].cap
		e.unfixed[i] = 0
	}
	for _, f := range e.order {
		for _, s := range f.segs {
			e.unfixed[e.segs[s].slot]++
		}
	}

	// CSR: group working-set indices by slot so "the flows on segment s"
	// is a contiguous scan.
	e.csrStart[0] = 0
	for i := 0; i < ns; i++ {
		e.csrStart[i+1] = e.csrStart[i] + e.unfixed[i]
		e.csrPos[i] = e.csrStart[i]
	}
	total := int(e.csrStart[ns])
	e.csrFlow = grow32(e.csrFlow, total)
	for fi, f := range e.order {
		for _, s := range f.segs {
			sl := e.segs[s].slot
			e.csrFlow[e.csrPos[sl]] = int32(fi)
			e.csrPos[sl]++
		}
	}

	// Progressive filling.
	remaining := len(e.order)
	for remaining > 0 {
		bottleneck, share := -1, 0.0
		for i := 0; i < ns; i++ {
			if e.unfixed[i] <= 0 {
				continue
			}
			s := e.resid[i] / float64(e.unfixed[i])
			if bottleneck < 0 || s < share {
				bottleneck, share = i, s
			}
		}
		if bottleneck < 0 {
			break // defensive: every flow crosses its edge segments
		}
		if share < 0 {
			share = 0
		}
		for ci := e.csrStart[bottleneck]; ci < e.csrStart[bottleneck+1]; ci++ {
			f := e.order[e.csrFlow[ci]]
			if f.rate >= 0 {
				continue
			}
			f.rate = share
			remaining--
			for _, s := range f.segs {
				sl := e.segs[s].slot
				e.resid[sl] -= share
				e.unfixed[sl]--
			}
		}
	}

	// Export per-segment allocated rates for background-load publication,
	// and re-project each flow at its new rate.
	for _, f := range e.order {
		for _, s := range f.segs {
			sg := &e.segs[s]
			if !sg.inRated {
				sg.inRated = true
				e.rated = append(e.rated, s)
			}
			sg.rate += f.rate
		}
		e.reproject(f)
	}
}

// reproject sets f's projected completion after a rate change and keeps
// minProj exact, or marks it stale when f may have held the minimum and
// moved later.
//
//simlint:hotpath
func (e *Engine) reproject(f *Flow) {
	old := f.proj
	f.proj = e.completionTime(f)
	if f.proj < e.minProj {
		e.minProj = f.proj
	} else if old == e.minProj && f.proj != old {
		e.projStale = true
	}
}

// nextCompletion returns the earliest projected completion over the
// active flows, rescanning them only when a rate change or a retirement
// left the cached minimum stale.
//
//simlint:hotpath
func (e *Engine) nextCompletion() sim.Time {
	if e.projStale {
		m := sim.Forever
		e.visits += int64(len(e.active))
		for _, f := range e.active {
			if f.proj < m {
				m = f.proj
			}
		}
		e.minProj, e.projStale = m, false
	}
	return e.minProj
}

// completionTime projects when f drains at its current rate.
//
//simlint:hotpath
func (e *Engine) completionTime(f *Flow) sim.Time {
	if f.rate <= 0 {
		return sim.Forever
	}
	ps := f.remaining * 8e12 / f.rate
	if ps >= float64(sim.Forever)-float64(e.now) {
		return sim.Forever
	}
	t := e.now + sim.Time(ps)
	if float64(t-e.now) < ps {
		t++ // ceil: never project completion before the last byte lands
	}
	return t
}

// NextWake returns the earliest time Advance has work to do: the nearest
// projected completion or pending callback, or — with a set change
// pending — the present, requesting an immediate tick so the solve folds
// in exactly once at the next Advance rather than once per Start.
// Forever when idle. The projected completion is cached (see
// nextCompletion), so NextWake is O(1) unless a rate change or a
// retirement left the cache stale.
//
//simlint:hotpath
func (e *Engine) NextWake() sim.Time {
	if e.dirty {
		return e.now
	}
	next := e.nextCompletion()
	if len(e.cbs) > 0 && e.cbs[0].at < next {
		next = e.cbs[0].at
	}
	return next
}

// Advance integrates fluid progress to time to, firing any completions
// and callbacks that fall in (now, to]. Completion hooks run inline in
// (time, sequence) order; they may Start new flows (the solver re-runs
// lazily). Advance never runs backwards: to earlier than now is a no-op.
//
// A pending set change (dirty) folds in at the engine's current clock:
// callers that care about exact start times (the fabric does) Advance to
// their present before Start, so the new solution takes over at its
// event time instead of smearing back to the last tick. On a quiet call
// with nothing due the early-out returns without scanning or solving.
//
// Cost rule: a lap that moves the fluid clock makes one O(active) pass,
// which integrates progress, collects the drained flows and re-projects
// the rest at the new clock; the next step reads the cached earliest
// projection. An Advance to the present therefore costs only the pending
// solve and the callbacks that are due, however many flows stand. The
// one exception is a lap after Start admitted an already-drained flow,
// which scans the active set for it.
//
//simlint:hotpath
func (e *Engine) Advance(to sim.Time) {
	if !e.dirty && to <= e.now && (len(e.cbs) == 0 || e.cbs[0].at > e.now) {
		return
	}
	for {
		if e.dirty {
			e.solve()
		}
		moved := false
		if to > e.now {
			// Next rate-change boundary: the earliest projected completion.
			step := to
			if t := e.nextCompletion(); t < step {
				step = t
			}
			if len(e.cbs) > 0 && e.cbs[0].at < step {
				step = e.cbs[0].at
			}
			if step > e.now {
				e.progress(step)
				moved = true
			}
		}
		switch {
		case moved:
			// Retire in descending index order: each swap-removal then
			// moves an already-visited survivor, exactly as a backward scan
			// would.
			e.drained = false
			for k := len(e.done) - 1; k >= 0; k-- {
				e.retire(int(e.done[k]))
			}
		case e.drained:
			// A flow drains without progress only by starting empty.
			e.drained = false
			e.projStale = true
			e.visits += int64(len(e.active))
			for i := len(e.active) - 1; i >= 0; i-- {
				if e.active[i].remaining <= completionEps {
					e.retire(i)
				}
			}
		}
		// Fire due callbacks.
		for len(e.cbs) > 0 && e.cbs[0].at <= e.now {
			cb := e.popCB()
			if cb.ack {
				e.Hooks.FlowAcked(cb.at, cb.arg)
			} else {
				e.Hooks.FlowDelivered(cb.at, cb.arg)
			}
		}
		if e.now >= to && !e.dirty {
			return
		}
	}
}

// progress moves the fluid clock to step in one pass over the active
// flows: each advances at its rate, a drained one is collected in done,
// and the rest are re-projected at the new clock, leaving minProj exact.
//
//simlint:hotpath
func (e *Engine) progress(step sim.Time) {
	dt := float64(step-e.now) / 8e12 // ps -> bytes/bit-rate factor
	e.now = step
	e.done = e.done[:0]
	m := sim.Forever
	e.visits += int64(len(e.active))
	for i, f := range e.active {
		d := f.rate * dt
		if d > f.remaining {
			d = f.remaining
		}
		f.remaining -= d
		e.progressed += d
		if f.remaining <= completionEps {
			e.done = append(e.done, int32(i))
			continue
		}
		f.proj = e.completionTime(f)
		if f.proj < m {
			m = f.proj
		}
	}
	e.minProj, e.projStale = m, false
}

// retire completes the drained flow at active[i]: it credits the
// sub-epsilon residue so delivered-byte accounting sums exactly to the
// payload, queues both callbacks and removes the flow.
//
//simlint:hotpath
func (e *Engine) retire(i int) {
	f := e.active[i]
	e.progressed += f.remaining
	f.remaining = 0
	e.pushCB(pendingCB{at: e.now + f.extraLat, seq: e.seq(), arg: f.arg})
	e.pushCB(pendingCB{at: e.now + f.extraLat + f.ackLat, seq: e.seq(), ack: true, arg: f.arg})
	e.remove(i)
}

func (e *Engine) seq() int64 {
	e.nextSeq++
	return e.nextSeq
}

// pushCB / popCB maintain the callback min-heap ordered by (at, seq).
// Hand-rolled sift on an engine-owned slice: container/heap would box
// every element through interface{}.
//
//simlint:hotpath
func (e *Engine) pushCB(cb pendingCB) {
	e.cbs = append(e.cbs, cb)
	i := len(e.cbs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !cbLess(e.cbs[i], e.cbs[p]) {
			break
		}
		e.cbs[i], e.cbs[p] = e.cbs[p], e.cbs[i]
		i = p
	}
}

//simlint:hotpath
func (e *Engine) popCB() pendingCB {
	top := e.cbs[0]
	last := len(e.cbs) - 1
	e.cbs[0] = e.cbs[last]
	e.cbs[last] = pendingCB{}
	e.cbs = e.cbs[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && cbLess(e.cbs[l], e.cbs[small]) {
			small = l
		}
		if r < n && cbLess(e.cbs[r], e.cbs[small]) {
			small = r
		}
		if small == i {
			break
		}
		e.cbs[i], e.cbs[small] = e.cbs[small], e.cbs[i]
		i = small
	}
	return top
}

func cbLess(a, b pendingCB) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// grow returns s resized to n entries, reusing capacity.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, n*2)
	}
	return s[:n]
}

func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n*2)
	}
	return s[:n]
}
