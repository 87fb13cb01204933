package routing

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// mapLoad is a LoadReader backed by a map of directed switch pairs.
type mapLoad map[[2]topology.SwitchID]int64

func (m mapLoad) QueuedTo(a, b topology.SwitchID) int64 {
	return m[[2]topology.SwitchID{a, b}]
}

func (m mapLoad) set(a, b topology.SwitchID, v int64) {
	m[[2]topology.SwitchID{a, b}] = v
}

func testTopo(t *testing.T) topology.Topology {
	t.Helper()
	return topology.MustNew(topology.Config{
		Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 1,
	})
}

func ctxFor(topo topology.Topology, src, dst topology.SwitchID) Context {
	first, _ := topo.SwitchNodes(src)
	dfirst, _ := topo.SwitchNodes(dst)
	return Context{
		Src: src, Dst: dst,
		SrcNode: first, DstNode: dfirst,
		FlowID: 1, MinimalBias: 2,
		Arena: new(topology.PathArena),
	}
}

func TestRegistryNames(t *testing.T) {
	want := []string{"adaptive", "ecmp", "minimal", "valiant"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		p, err := ByName(name)
		if err != nil || p == nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy %q reports Name() %q", name, p.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName of unknown policy did not error")
	}
}

// TestPoliciesAreZeroSize pins the stateless contract: a network shares
// its one policy value across all of its domains, and every network
// shares the values in policies, which is safe only while a policy
// carries no state.
func TestPoliciesAreZeroSize(t *testing.T) {
	for _, p := range policies {
		if size := reflect.TypeOf(p).Size(); size != 0 {
			t.Errorf("policy %q is %d bytes, want a zero-size type", p.Name(), size)
		}
	}
}

func TestMinimalOnlyTakesFirst(t *testing.T) {
	topo := testTopo(t)
	src, dst := topology.SwitchID(0), topology.SwitchID(5)
	min := topo.MinimalPaths(src, dst, 4)
	p := MinimalOnly{}.Choose(topo, ctxFor(topo, src, dst), min, mapLoad{}, sim.NewRNG(1))
	if &p[0] != &min[0][0] {
		t.Error("MinimalOnly did not return the first minimal candidate")
	}
}

func TestAdaptiveAvoidsHotMinimalHop(t *testing.T) {
	topo := testTopo(t)
	src, dst := topology.SwitchID(0), topology.SwitchID(2) // same group
	min := topo.MinimalPaths(src, dst, 4)
	if len(min) < 1 {
		t.Fatal("no minimal paths")
	}
	// Load the direct hop heavily; detours should win despite the bias.
	load := mapLoad{}
	load.set(src, dst, 1<<20)
	got := SlingshotAdaptive{}.Choose(topo, ctxFor(topo, src, dst), min, load, sim.NewRNG(3))
	if !topo.Valid(got) {
		t.Fatalf("invalid path %v", got)
	}
	if len(got) == 2 && got[0] == src && got[1] == dst {
		t.Errorf("adaptive kept the congested direct hop %v", got)
	}
}

func TestAdaptiveCopiesArenaPaths(t *testing.T) {
	topo := testTopo(t)
	src, dst := topology.SwitchID(0), topology.SwitchID(2)
	min := topo.MinimalPaths(src, dst, 4)
	load := mapLoad{}
	load.set(src, dst, 1<<20)
	ctx := ctxFor(topo, src, dst)
	got := SlingshotAdaptive{}.Choose(topo, ctx, min, load, sim.NewRNG(3))
	snapshot := append(topology.Path(nil), got...)
	// Overwrite the arena with fresh routing decisions; a non-copied
	// result would be clobbered.
	for i := 0; i < 8; i++ {
		topo.NonMinimalPaths(ctx.Arena, dst, src, sim.NewRNG(uint64(i)), 4)
	}
	for i := range got {
		if got[i] != snapshot[i] {
			t.Fatalf("chosen path aliases the routing arena: %v vs %v", got, snapshot)
		}
	}
}

func TestECMPIsDeterministicAndSpreads(t *testing.T) {
	topo := topology.MustBuild(topology.FatTreeConfig{
		Pods: 2, EdgePerPod: 2, AggPerPod: 2, CorePerAgg: 2, NodesPerEdge: 4,
	})
	src, dst := topology.SwitchID(0), topology.SwitchID(3) // cross-pod
	min := topo.MinimalPaths(src, dst, 4)
	if len(min) < 2 {
		t.Fatalf("want several equal-cost paths, got %d", len(min))
	}
	ecmp := ECMPHash{}
	seen := map[string]bool{}
	for flow := int64(0); flow < 64; flow++ {
		ctx := ctxFor(topo, src, dst)
		ctx.FlowID = flow
		// No LoadReader, no RNG: ECMP must not need either.
		p1 := ecmp.Choose(topo, ctx, min, nil, nil)
		p2 := ecmp.Choose(topo, ctx, min, nil, nil)
		if &p1[0] != &p2[0] {
			t.Fatalf("flow %d not sticky", flow)
		}
		if !topo.Valid(p1) {
			t.Fatalf("invalid path %v", p1)
		}
		key := ""
		for _, s := range p1 {
			key += string(rune(s)) + "."
		}
		seen[key] = true
	}
	if len(seen) < 2 {
		t.Errorf("64 flows hashed onto %d path(s); ECMP does not spread", len(seen))
	}
}

func TestValiantFallsBackToMinimalWhenIdle(t *testing.T) {
	topo := testTopo(t)
	src, dst := topology.SwitchID(0), topology.SwitchID(5)
	min := topo.MinimalPaths(src, dst, 4)
	got := ValiantUGAL{}.Choose(topo, ctxFor(topo, src, dst), min, mapLoad{}, sim.NewRNG(9))
	// On an idle fabric the detour penalty guarantees a minimal win.
	found := false
	for _, m := range min {
		if len(m) == len(got) && &m[0] == &got[0] {
			found = true
		}
	}
	if !found {
		t.Errorf("idle ValiantUGAL chose a detour %v", got)
	}
}

func TestValiantDetoursUnderLoadAndCopies(t *testing.T) {
	topo := testTopo(t)
	src, dst := topology.SwitchID(0), topology.SwitchID(5)
	min := topo.MinimalPaths(src, dst, 4)
	load := mapLoad{}
	// Saturate every hop of every minimal candidate.
	for _, m := range min {
		for i := 0; i+1 < len(m); i++ {
			load.set(m[i], m[i+1], 1<<20)
		}
	}
	ctx := ctxFor(topo, src, dst)
	got := ValiantUGAL{}.Choose(topo, ctx, min, load, sim.NewRNG(9))
	if !topo.Valid(got) {
		t.Fatalf("invalid path %v", got)
	}
	if got[0] != src || got[len(got)-1] != dst {
		t.Fatalf("path %v does not span %d->%d", got, src, dst)
	}
	snapshot := append(topology.Path(nil), got...)
	for i := 0; i < 8; i++ {
		topo.NonMinimalPaths(ctx.Arena, dst, src, sim.NewRNG(uint64(i)), 4)
	}
	for i := range got {
		if got[i] != snapshot[i] {
			t.Fatalf("detour aliases the routing arena")
		}
	}
}

// TestValiantValidOverAllPairs: on every backend, for every pair of
// node-attached switches, ValiantUGAL returns a topology-valid path with
// the right endpoints — idle (minimal fallback) and with every minimal
// candidate saturated (detour territory).
func TestValiantValidOverAllPairs(t *testing.T) {
	topos := map[string]topology.Topology{
		"dragonfly": topology.MustNew(topology.Config{
			Groups: 3, SwitchesPerGroup: 4, NodesPerSwitch: 2, GlobalPerPair: 1,
		}),
		"fattree": topology.MustBuild(topology.FatTreeConfig{
			Pods: 2, EdgePerPod: 2, AggPerPod: 2, CorePerAgg: 2, NodesPerEdge: 2,
		}),
		"hyperx": topology.MustBuild(topology.HyperXConfig{
			Dims: []int{3, 3}, NodesPerSwitch: 2,
		}),
	}
	pol := ValiantUGAL{}
	for kind, topo := range topos {
		t.Run(kind, func(t *testing.T) {
			var nodeSwitches []topology.SwitchID
			for s := 0; s < topo.Switches(); s++ {
				if _, count := topo.SwitchNodes(topology.SwitchID(s)); count > 0 {
					nodeSwitches = append(nodeSwitches, topology.SwitchID(s))
				}
			}
			rng := sim.NewRNG(17)
			for _, src := range nodeSwitches {
				for _, dst := range nodeSwitches {
					if src == dst {
						continue
					}
					min := topo.MinimalPaths(src, dst, 4)
					if len(min) == 0 {
						t.Fatalf("no minimal path %d->%d", src, dst)
					}
					hot := mapLoad{}
					for _, m := range min {
						for i := 0; i+1 < len(m); i++ {
							hot.set(m[i], m[i+1], 1<<20)
						}
					}
					for _, load := range []LoadReader{mapLoad{}, hot} {
						p := pol.Choose(topo, ctxFor(topo, src, dst), min, load, rng)
						if !topo.Valid(p) {
							t.Fatalf("%d->%d: invalid path %v", src, dst, p)
						}
						if p[0] != src || p[len(p)-1] != dst {
							t.Fatalf("%d->%d: path %v has wrong endpoints", src, dst, p)
						}
					}
				}
			}
		})
	}
}

func TestPathCost(t *testing.T) {
	load := mapLoad{}
	load.set(0, 1, 100)
	load.set(1, 2, 50)
	p := topology.Path{0, 1, 2}
	if got := PathCost(load, p, 1); got != 150+2*HopCharge {
		t.Errorf("PathCost = %v, want %v", got, 150+2*HopCharge)
	}
	if got := PathCost(load, p, 2); got != 2*(150+2*HopCharge) {
		t.Errorf("penalty not applied: %v", got)
	}
	if got := PathCost(load, topology.Path{4}, 1); got != 0 {
		t.Errorf("single-switch path cost = %v, want 0", got)
	}
}
