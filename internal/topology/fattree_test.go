package topology

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// smallFT is a 3-level tree: 2 pods x (2 edge + 2 agg), 2 cores per
// plane, 4 nodes per edge switch = 16 nodes, 12 switches.
func smallFT() *FatTree {
	f, err := NewFatTree(FatTreeConfig{
		Pods: 2, EdgePerPod: 2, AggPerPod: 2, CorePerAgg: 2, NodesPerEdge: 4,
	})
	if err != nil {
		panic(err)
	}
	return f
}

// leafSpine is a 2-level tree: 4 leaves x 2 spines, 4 nodes per leaf.
func leafSpine() *FatTree {
	f, err := NewFatTree(FatTreeConfig{
		Pods: 1, EdgePerPod: 4, AggPerPod: 2, NodesPerEdge: 4,
	})
	if err != nil {
		panic(err)
	}
	return f
}

func TestFatTreeValidate(t *testing.T) {
	bad := []FatTreeConfig{
		{},
		{Pods: 2, EdgePerPod: 2, AggPerPod: 2, NodesPerEdge: 4},                 // 2 pods, no cores
		{Pods: 1, EdgePerPod: 2, AggPerPod: 63, NodesPerEdge: 4},                // edge port budget
		{Pods: 65, EdgePerPod: 2, AggPerPod: 2, CorePerAgg: 2, NodesPerEdge: 4}, // core port budget
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
}

// portCount tallies every switch's attached link endpoints (edge links
// count once, inter-switch links once per side).
func portCount(tp Topology) []int {
	ports := make([]int, tp.Switches())
	for _, l := range tp.Links() {
		if l.Kind == EdgeLink {
			ports[l.A]++
			continue
		}
		ports[l.A]++
		ports[l.B]++
	}
	return ports
}

func TestFatTreeCounts(t *testing.T) {
	f := smallFT()
	if f.Switches() != 12 { // 4 edge + 4 agg + 4 core
		t.Errorf("switches = %d", f.Switches())
	}
	if f.Nodes() != 16 {
		t.Errorf("nodes = %d", f.Nodes())
	}
	edge, local, global := 0, 0, 0
	for _, l := range f.Links() {
		switch l.Kind {
		case EdgeLink:
			edge++
		case LocalLink:
			local++
		case GlobalLink:
			global++
		}
	}
	// 16 edge; edge-agg: 2 pods * 2*2 = 8; agg-core: 2 pods * 2 aggs * 2 cores = 8.
	if edge != 16 || local != 8 || global != 8 {
		t.Errorf("edge=%d local=%d global=%d", edge, local, global)
	}
	// Port budget: every switch within the (default Rosetta) radix, and
	// exactly the closed-form role counts.
	for s, p := range portCount(f) {
		want := 4 + 2 // edge: nodes + aggs
		if s >= 4 && s < 8 {
			want = 2 + 2 // agg: edges + cores of its plane
		} else if s >= 8 {
			want = 2 // core: one per pod
		}
		if p != want {
			t.Errorf("switch %d has %d ports, want %d", s, p, want)
		}
	}
}

func TestFatTreeSwitchNodes(t *testing.T) {
	f := smallFT()
	for n := NodeID(0); int(n) < f.Nodes(); n++ {
		s := f.SwitchOf(n)
		first, count := f.SwitchNodes(s)
		if count != 4 || n < first || int(n) >= int(first)+count {
			t.Fatalf("node %d not in SwitchNodes(%d) = (%d, %d)", n, s, first, count)
		}
	}
	for s := 4; s < f.Switches(); s++ { // aggs and cores host no nodes
		if _, count := f.SwitchNodes(SwitchID(s)); count != 0 {
			t.Errorf("switch %d hosts %d nodes, want 0", s, count)
		}
	}
}

func TestFatTreeBisectionAndDiameter(t *testing.T) {
	f := smallFT()
	// Even pod bisection: uplink capacity of one pod = 2 aggs * 2 cores.
	if n := f.BisectionLinks(); n != 4 {
		t.Errorf("bisection links = %d, want 4", n)
	}
	if d := f.Diameter(); d != 4 {
		t.Errorf("3-level diameter = %d, want 4", d)
	}
	ls := leafSpine()
	if n := ls.BisectionLinks(); n != 4 { // 2 leaves * 2 spines
		t.Errorf("leaf-spine bisection links = %d, want 4", n)
	}
	if d := ls.Diameter(); d != 2 {
		t.Errorf("2-level diameter = %d, want 2", d)
	}
}

func TestFatTreeMinimalPaths(t *testing.T) {
	for _, f := range []*FatTree{smallFT(), leafSpine()} {
		for src := SwitchID(0); int(src) < f.edges; src++ {
			for dst := SwitchID(0); int(dst) < f.edges; dst++ {
				ps := f.MinimalPaths(src, dst, 8)
				if len(ps) == 0 {
					t.Fatalf("no path %d->%d", src, dst)
				}
				wantHops := 0
				switch {
				case src == dst:
					wantHops = 0
				case f.podOf(src) == f.podOf(dst):
					wantHops = 2
				default:
					wantHops = 4
				}
				for _, p := range ps {
					if !f.Valid(p) {
						t.Fatalf("invalid path %v", p)
					}
					if p.InterSwitchHops() != wantHops {
						t.Fatalf("path %v has %d hops, want %d", p, p.InterSwitchHops(), wantHops)
					}
				}
			}
		}
	}
}

func TestFatTreeNonMinimalPaths(t *testing.T) {
	f := smallFT()
	rng := sim.NewRNG(3)
	var ar PathArena
	ps := f.NonMinimalPaths(&ar, 0, 3, rng, 2)
	if len(ps) == 0 {
		t.Fatal("no non-minimal paths")
	}
	for _, p := range ps {
		if !f.Valid(p) {
			t.Errorf("invalid detour %v", p)
		}
		if p.InterSwitchHops() <= 0 {
			t.Errorf("degenerate detour %v", p)
		}
	}
	// Nil rng is the deterministic first choice, and replays with equal
	// seeds reproduce the same candidates (the RNG-stream contract).
	a := f.NonMinimalPaths(&ar, 0, 3, nil, 2)
	aCopy := make([]Path, len(a))
	for i, p := range a {
		aCopy[i] = append(Path(nil), p...)
	}
	b := f.NonMinimalPaths(&ar, 0, 3, nil, 2)
	if len(aCopy) != len(b) {
		t.Fatalf("nil-rng replay differs: %v vs %v", aCopy, b)
	}
	for i := range b {
		for j := range b[i] {
			if aCopy[i][j] != b[i][j] {
				t.Fatalf("nil-rng replay differs at %d: %v vs %v", i, aCopy[i], b[i])
			}
		}
	}
}

func TestFatTreeFor(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%2000) + 1
		cfg := FatTreeFor(n)
		if cfg.Validate() != nil {
			return false
		}
		tp, err := NewFatTree(cfg)
		return err == nil && tp.Nodes() >= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// Past 4096 nodes a naive pod count would blow the radix-64 core
	// port budget; the helper must grow pods instead (validated only —
	// building a 32k-node tree is needlessly slow for a unit test).
	for _, n := range []int{4097, 8192, 20000, 32768} {
		cfg := FatTreeFor(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("FatTreeFor(%d) invalid: %v", n, err)
			continue
		}
		if got := cfg.Pods * cfg.EdgePerPod * cfg.NodesPerEdge; got < n {
			t.Errorf("FatTreeFor(%d) covers only %d nodes", n, got)
		}
	}
}
