package flow

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// equivTopos are the three backends the incremental solver must match the
// full solver on, bit for bit.
func equivTopos(t *testing.T) map[string]func() topology.Topology {
	t.Helper()
	return map[string]func() topology.Topology{
		"dragonfly": func() topology.Topology {
			return topology.MustBuild(topology.Config{
				Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 2, GlobalPerPair: 1,
			})
		},
		"fattree": func() topology.Topology {
			return topology.MustBuild(topology.FatTreeConfig{
				Pods: 4, EdgePerPod: 2, AggPerPod: 2, CorePerAgg: 2, NodesPerEdge: 2,
			})
		},
		"hyperx": func() topology.Topology {
			return topology.MustBuild(topology.HyperXConfig{
				Dims: []int{4, 3}, NodesPerSwitch: 2,
			})
		},
	}
}

// compareEngines asserts both engines hold the identical solved state:
// same active flows (by id) with bit-identical rates, and bit-identical
// allocated rates on every segment, read through the segment index.
func compareEngines(t *testing.T, ref, inc *Engine, step int) {
	t.Helper()
	if len(ref.active) != len(inc.active) {
		t.Fatalf("step %d: active %d vs %d", step, len(ref.active), len(inc.active))
	}
	rates := map[int64]float64{}
	for _, f := range ref.active {
		rates[f.id] = f.rate
	}
	for _, f := range inc.active {
		w, ok := rates[f.id]
		if !ok {
			t.Fatalf("step %d: flow %d only in incremental engine", step, f.id)
		}
		if f.rate != w {
			t.Fatalf("step %d: flow %d rate %v (incremental) != %v (full)", step, f.id, f.rate, w)
		}
	}
	for s := range ref.segIdx {
		r, _ := ref.rateOf(int32(s))
		i, _ := inc.rateOf(int32(s))
		if r != i {
			t.Fatalf("step %d: segment %d rate %v (full) != %v (incremental)", step, s, r, i)
		}
	}
}

// TestIncrementalMatchesFullRandomized drives a full-resolve reference
// engine and an incremental engine through the same randomized schedule of
// >=3000 flow starts, completions and time steps on all three topologies,
// comparing every rate exactly after each event. Canonical id-ordered
// filling makes the incremental component solve bit-identical, not just
// numerically close.
func TestIncrementalMatchesFullRandomized(t *testing.T) {
	for name, build := range equivTopos(t) {
		t.Run(name, func(t *testing.T) {
			topo := build()
			caps := Caps{EdgeBits: tEdge, FabricBits: tFabric}
			ref := NewEngine(topo, caps)
			ref.SetForceFull(true)
			ref.Hooks = &recorder{}
			inc := NewEngine(topo, caps)
			inc.Hooks = &recorder{}

			rng := sim.NewRNG(0xfeed)
			nodes := topo.Nodes()
			const events = 3200
			for step := 0; step < events; step++ {
				switch {
				case rng.Intn(4) != 0 && ref.Active() < 256:
					src := topology.NodeID(rng.Intn(nodes))
					dst := topology.NodeID(rng.Intn(nodes))
					if src == dst {
						dst = (dst + 1) % topology.NodeID(nodes)
					}
					bytes := int64(1<<14) << rng.Intn(6)
					opt := FlowOpts{ExtraLatency: sim.Nanosecond * sim.Time(rng.Intn(500))}
					ref.Start(src, dst, bytes, opt)
					inc.Start(src, dst, bytes, opt)
				default:
					// Advance both engines, draining some completions (the
					// finish side of the dirty-seed machinery).
					to := ref.Now() + sim.Time(rng.Intn(int(20*sim.Microsecond)))
					ref.Advance(to)
					inc.Advance(to)
				}
				ref.Resolve()
				inc.Resolve()
				compareEngines(t, ref, inc, step)
			}
			// Drain to empty: the completion path must agree to the end.
			ref.Advance(sim.Second)
			inc.Advance(sim.Second)
			if ref.Active() != 0 || inc.Active() != 0 {
				t.Fatalf("drain left %d/%d active", ref.Active(), inc.Active())
			}
			compareEngines(t, ref, inc, events)
			if ref.TakeProgress() != inc.TakeProgress() {
				t.Fatalf("delivered-byte accounting diverged")
			}
		})
	}
}

// TestSolverInvocationCounts pins the lazy-solve contract: a burst of
// Starts costs one solve, and quiet Advances (no dirty flows, no
// completions due) run the solver zero times.
func TestSolverInvocationCounts(t *testing.T) {
	e := newTestEngine(t)
	e.Hooks = &recorder{}
	nodes := e.topo.Nodes()
	for i := 0; i < 12; i++ {
		src := topology.NodeID((i * 5) % nodes)
		dst := topology.NodeID((i*7 + 3) % nodes)
		if src == dst {
			dst = (dst + 1) % topology.NodeID(nodes)
		}
		e.Start(src, dst, 64<<20, FlowOpts{})
	}
	e.Resolve()
	if got := e.Solves(); got != 1 {
		t.Fatalf("burst of 12 starts ran solver %d times, want 1", got)
	}
	// 64 MiB per flow lasts well past a few microseconds: these advances
	// are quiet intervals and must not re-solve.
	base := e.Solves()
	for i := 0; i < 50; i++ {
		e.Advance(e.Now() + sim.Microsecond)
	}
	if got := e.Solves(); got != base {
		t.Fatalf("quiet interval ran solver %d extra times, want 0", got-base)
	}
	// Completions dirty their component and re-solve on the next lap.
	e.Advance(sim.Second)
	if got := e.Solves(); got <= base {
		t.Fatalf("drain never re-solved (solves=%d)", got)
	}
}
