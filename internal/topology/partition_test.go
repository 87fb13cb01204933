package topology

import (
	"testing"

	"repro/internal/phy"
)

// checkPartition validates the structural invariants every backend's
// partition must satisfy: a dense domain for every switch, a cut listing
// exactly the links whose endpoints differ, and the latency bound
// matching the fastest cut link.
func checkPartition(t *testing.T, topo Topology, p Partition, wantDomains int) {
	t.Helper()
	if p.Domains != wantDomains {
		t.Fatalf("Domains = %d, want %d", p.Domains, wantDomains)
	}
	if len(p.Of) != topo.Switches() {
		t.Fatalf("Of covers %d switches, want %d", len(p.Of), topo.Switches())
	}
	seen := make([]bool, p.Domains)
	for s, d := range p.Of {
		if d < 0 || d >= p.Domains {
			t.Fatalf("switch %d in domain %d, out of range", s, d)
		}
		seen[d] = true
	}
	for d, ok := range seen {
		if !ok {
			t.Fatalf("domain %d owns no switch", d)
		}
	}
	inCut := make(map[int]bool, len(p.Cut))
	for _, id := range p.Cut {
		inCut[id] = true
	}
	min, first := p.MinCutLatency, len(p.Cut) == 0
	for _, l := range topo.Links() {
		cross := l.Kind != EdgeLink && p.Of[l.A] != p.Of[l.B]
		if cross != inCut[l.ID] {
			t.Fatalf("link %d (%v %d-%d): cut membership %v, want %v",
				l.ID, l.Kind, l.A, l.B, inCut[l.ID], cross)
		}
		if cross {
			if lat := kindLatency(l.Kind); lat < min {
				t.Fatalf("cut link %d has latency %v below MinCutLatency %v", l.ID, lat, min)
			} else if lat == min {
				first = false
			}
		}
	}
	if first && len(p.Cut) > 0 {
		t.Fatalf("MinCutLatency %v matches no cut link", min)
	}
}

func TestPartitionDragonfly(t *testing.T) {
	d := MustNew(Config{Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 2, GlobalPerPair: 2})
	p := d.Partition()
	checkPartition(t, d, p, 4)
	for s := range p.Of {
		if p.Of[s] != s/4 {
			t.Fatalf("switch %d in domain %d, want its group %d", s, p.Of[s], s/4)
		}
	}
	// A Dragonfly cut is all-optical: the full lookahead window.
	if p.MinCutLatency != phy.OpticalDelay() {
		t.Fatalf("MinCutLatency = %v, want the optical delay", p.MinCutLatency)
	}
}

func TestPartitionFatTree(t *testing.T) {
	f, err := NewFatTree(FatTreeConfig{Pods: 4, EdgePerPod: 2, AggPerPod: 2, CorePerAgg: 2, NodesPerEdge: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := f.Partition()
	checkPartition(t, f, p, 4)
	// In-pod wiring never crosses: the cut is the optical agg-core mesh.
	if p.MinCutLatency != phy.OpticalDelay() {
		t.Fatalf("MinCutLatency = %v, want the optical delay", p.MinCutLatency)
	}
	for _, id := range p.Cut {
		if k := f.Links()[id].Kind; k != GlobalLink {
			t.Fatalf("cut link %d is %v, want only global links", id, k)
		}
	}

	// The two-level leaf-spine is one pod: a single cutless domain.
	ls, err := NewFatTree(FatTreeConfig{Pods: 1, EdgePerPod: 4, AggPerPod: 2, NodesPerEdge: 2})
	if err != nil {
		t.Fatal(err)
	}
	p = ls.Partition()
	checkPartition(t, ls, p, 1)
	if len(p.Cut) != 0 || p.MinCutLatency <= 0 {
		t.Fatalf("single-domain cut = %d links, latency %v; want none and a positive bound", len(p.Cut), p.MinCutLatency)
	}
}

func TestPartitionHyperX(t *testing.T) {
	h, err := NewHyperX(HyperXConfig{Dims: []int{4, 3, 2}, NodesPerSwitch: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := h.Partition()
	checkPartition(t, h, p, 6)
	// Dimension-0 rows stay whole, so only optical higher-dimension links
	// cross.
	for _, id := range p.Cut {
		if k := h.Links()[id].Kind; k != GlobalLink {
			t.Fatalf("cut link %d is %v, want only global links", id, k)
		}
	}
	if p.MinCutLatency != phy.OpticalDelay() {
		t.Fatalf("MinCutLatency = %v, want the optical delay", p.MinCutLatency)
	}
}
