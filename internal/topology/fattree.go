package topology

import (
	"fmt"

	"repro/internal/sim"
)

// This file implements the folded-Clos fat-tree — the topology of the
// 100 Gb/s clusters the paper compares Slingshot against (§I, §III). Two
// variants share one config:
//
//   - two-level leaf–spine (CorePerAgg == 0, one pod): every leaf connects
//     to every spine; diameter 2.
//   - three-level k-ary-style tree: pods of edge + aggregation switches,
//     with aggregation switch j of every pod wired to the j-th "plane" of
//     core switches; diameter 4.
//
// Nodes attach only to edge switches, which are numbered first so that
// SwitchOf stays a single division (the dense switch-major numbering the
// Topology contract requires).

// FatTreeConfig describes a 2- or 3-level folded-Clos fat-tree.
type FatTreeConfig struct {
	// Pods is the pod count. A two-level tree (CorePerAgg == 0) is a
	// single pod: its AggPerPod switches are the spines.
	Pods int
	// EdgePerPod is the number of edge (leaf) switches per pod.
	EdgePerPod int
	// AggPerPod is the number of aggregation switches per pod (the spine
	// count of a two-level tree).
	AggPerPod int
	// CorePerAgg is the number of core switches in each of the AggPerPod
	// core planes; 0 selects the two-level leaf–spine variant.
	CorePerAgg int
	// NodesPerEdge is the endpoint count per edge switch.
	NodesPerEdge int
	// Radix is the switch port count; 0 means Rosetta's 64.
	Radix int
}

// Validate checks structural feasibility, including the port budget of
// every switch role.
func (c FatTreeConfig) Validate() error {
	if c.Pods < 1 || c.EdgePerPod < 1 || c.AggPerPod < 1 || c.NodesPerEdge < 1 {
		return fmt.Errorf("topology: non-positive size in fat-tree %+v", c)
	}
	if c.CorePerAgg == 0 && c.Pods != 1 {
		return fmt.Errorf("topology: two-level fat-tree (CorePerAgg 0) must be a single pod, got %d", c.Pods)
	}
	radix := c.Radix
	if radix == 0 {
		radix = RosettaRadix
	}
	edgePorts := c.NodesPerEdge + c.AggPerPod
	aggPorts := c.EdgePerPod + c.CorePerAgg
	corePorts := c.Pods
	if edgePorts > radix || aggPorts > radix || corePorts > radix {
		return fmt.Errorf("topology: fat-tree needs %d edge / %d agg / %d core ports but radix is %d",
			edgePorts, aggPorts, corePorts, radix)
	}
	return nil
}

// Build lets a FatTreeConfig act as a topology.Builder.
func (c FatTreeConfig) Build() (Topology, error) { return NewFatTree(c) }

// FatTree is an immutable built folded-Clos topology.
type FatTree struct {
	adjacency
	linkTable
	Cfg   FatTreeConfig
	nodes int
	// Switch-ID layout: edges [0, edges), aggs [edges, edges+aggs),
	// cores [edges+aggs, sw).
	edges, aggs int
}

var _ Topology = (*FatTree)(nil)

// NewFatTree builds a fat-tree from the config. Wiring is deterministic:
// edge links first (node-major), then edge–agg links (pod-major), then
// agg–core links (pod-major, plane-major within a pod).
func NewFatTree(cfg FatTreeConfig) (*FatTree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	edges := cfg.Pods * cfg.EdgePerPod
	aggs := cfg.Pods * cfg.AggPerPod
	cores := cfg.AggPerPod * cfg.CorePerAgg
	f := &FatTree{
		Cfg:   cfg,
		nodes: edges * cfg.NodesPerEdge,
		edges: edges,
		aggs:  aggs,
	}
	f.reserve(f.nodes + edges*cfg.AggPerPod + aggs*cfg.CorePerAgg)

	// Edge links: node n attaches to edge switch n / NodesPerEdge.
	f.addEdgeLinks(f.nodes, cfg.NodesPerEdge)

	// Edge–aggregation links (copper, in-pod).
	for p := 0; p < cfg.Pods; p++ {
		for e := 0; e < cfg.EdgePerPod; e++ {
			for a := 0; a < cfg.AggPerPod; a++ {
				es, as := f.edgeSwitch(p, e), f.aggSwitch(p, a)
				f.addLink(LocalLink, es, as, -1)
			}
		}
	}

	// Aggregation–core links (optical, cross-pod): agg j of every pod
	// connects to every core of plane j.
	for p := 0; p < cfg.Pods; p++ {
		for a := 0; a < cfg.AggPerPod; a++ {
			for c := 0; c < cfg.CorePerAgg; c++ {
				as, cs := f.aggSwitch(p, a), f.coreSwitch(a, c)
				f.addLink(GlobalLink, as, cs, -1)
			}
		}
	}
	f.initAdjacency(edges+aggs+cores, f.links)
	return f, nil
}

// edgeSwitch returns the switch ID of edge switch e in pod p.
func (f *FatTree) edgeSwitch(p, e int) SwitchID {
	return SwitchID(p*f.Cfg.EdgePerPod + e)
}

// aggSwitch returns the switch ID of aggregation switch a in pod p.
func (f *FatTree) aggSwitch(p, a int) SwitchID {
	return SwitchID(f.edges + p*f.Cfg.AggPerPod + a)
}

// coreSwitch returns the switch ID of core c in plane a.
func (f *FatTree) coreSwitch(a, c int) SwitchID {
	return SwitchID(f.edges + f.aggs + a*f.Cfg.CorePerAgg + c)
}

// podOf returns the pod of an edge switch.
func (f *FatTree) podOf(e SwitchID) int { return int(e) / f.Cfg.EdgePerPod }

// isEdge reports whether s is an edge (leaf) switch.
func (f *FatTree) isEdge(s SwitchID) bool { return int(s) < f.edges }

// Kind names the backend.
func (f *FatTree) Kind() string { return "fattree" }

// Nodes returns the endpoint count.
func (f *FatTree) Nodes() int { return f.nodes }

// SwitchOf returns the edge switch that node n attaches to.
func (f *FatTree) SwitchOf(n NodeID) SwitchID {
	return SwitchID(int(n) / f.Cfg.NodesPerEdge)
}

// SwitchNodes returns the node range of a switch (empty above the edge
// level).
func (f *FatTree) SwitchNodes(s SwitchID) (first NodeID, count int) {
	if !f.isEdge(s) {
		return 0, 0
	}
	npe := f.Cfg.NodesPerEdge
	return NodeID(int(s) * npe), npe
}

// MinimalPaths enumerates up to max minimal paths between two edge
// switches: via each in-pod aggregation switch within a pod, and via each
// (plane, core) pair across pods — the equal-cost ups ECMP hashes over.
// Pairs involving aggregation or core switches fall back to the direct
// link when adjacent (the fabric only routes between node switches).
func (f *FatTree) MinimalPaths(src, dst SwitchID, max int) []Path {
	if max <= 0 {
		max = RouteCandidates
	}
	if src == dst {
		return []Path{{src}}
	}
	if !f.isEdge(src) || !f.isEdge(dst) {
		if f.localAdjacent(src, dst) {
			return []Path{{src, dst}}
		}
		return nil
	}
	cfg := &f.Cfg
	ps, pd := f.podOf(src), f.podOf(dst)
	var out []Path
	if ps == pd {
		for a := 0; a < cfg.AggPerPod && len(out) < max; a++ {
			out = append(out, Path{src, f.aggSwitch(ps, a), dst})
		}
		return out
	}
	for a := 0; a < cfg.AggPerPod && len(out) < max; a++ {
		for c := 0; c < cfg.CorePerAgg && len(out) < max; c++ {
			out = append(out, Path{src, f.aggSwitch(ps, a), f.coreSwitch(a, c), f.aggSwitch(pd, a), dst})
		}
	}
	return out
}

// arenaUpDown builds one minimal src->dst edge-to-edge path in the arena,
// choosing the aggregation plane (and core within it) with rng; nil rng
// takes the first choice. src == dst yields the single-switch path.
func (f *FatTree) arenaUpDown(ar *PathArena, src, dst SwitchID, rng *sim.RNG) Path {
	if src == dst {
		return ar.arenaPath(src)
	}
	cfg := &f.Cfg
	ps, pd := f.podOf(src), f.podOf(dst)
	a := 0
	if rng != nil {
		a = rng.Intn(cfg.AggPerPod)
	}
	if ps == pd {
		return ar.arenaPath(src, f.aggSwitch(ps, a), dst)
	}
	c := 0
	if rng != nil {
		c = rng.Intn(cfg.CorePerAgg)
	}
	return ar.arenaPath(src, f.aggSwitch(ps, a), f.coreSwitch(a, c), f.aggSwitch(pd, a), dst)
}

// NonMinimalPaths enumerates up to max Valiant-style detours in the
// caller's arena: down to a random intermediate edge switch, then
// minimally on to the destination. rng draws follow a fixed order so
// replays are deterministic. The returned paths live in the arena, which
// the next call on it reuses.
func (f *FatTree) NonMinimalPaths(a *PathArena, src, dst SwitchID, rng *sim.RNG, max int) []Path {
	if max <= 0 {
		max = 2
	}
	if src == dst || !f.isEdge(src) || !f.isEdge(dst) || f.edges <= 2 {
		return nil
	}
	a.pathNodes = a.pathNodes[:0]
	out := a.outPaths[:0]
	defer func() { a.outPaths = out[:0] }() //simlint:allocok -- non-escaping open-coded defer; stays on the stack
	start := 0
	if rng != nil {
		start = rng.Intn(f.edges)
	}
	for i := 0; i < f.edges && len(out) < max; i++ {
		mid := SwitchID((start + i) % f.edges)
		if mid == src || mid == dst {
			continue
		}
		p := a.arenaCompose(f.arenaUpDown(a, src, mid, rng), f.arenaUpDown(a, mid, dst, rng))
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// BisectionLinks returns the links crossing the even bisection of the
// machine — half the pods (half the leaves for a two-level tree) on each
// side. Every cross-bisection packet climbs out of its half, so the cut
// is the up-link capacity of the smaller half: pods/2 * AggPerPod *
// CorePerAgg for three levels, leaves/2 * spines for two.
func (f *FatTree) BisectionLinks() int {
	cfg := &f.Cfg
	if cfg.Pods < 2 {
		// Single pod (the leaf–spine variant, or a degenerate one-pod
		// three-level tree): bisect the leaves; the cut is their uplinks.
		return cfg.EdgePerPod / 2 * cfg.AggPerPod
	}
	return cfg.Pods / 2 * cfg.AggPerPod * cfg.CorePerAgg
}

// FatTreeFor returns a fat-tree covering at least n nodes, scaling the
// way the reduced-scale Dragonfly configs do: small systems get a
// two-level leaf–spine, larger ones a three-level tree with enough pods
// for the node budget. Pods are capped by the core port budget (a core
// owns one link per pod), so very large systems grow their pods instead
// — the returned config always passes Validate.
func FatTreeFor(n int) FatTreeConfig {
	if n < 1 {
		n = 1
	}
	npe := scaledEndpointsPerSwitch(n)
	leaves := (n + npe - 1) / npe
	if leaves <= 4 {
		// Two-level leaf–spine with half-bandwidth spines.
		spines := max(1, (leaves+1)/2)
		return FatTreeConfig{
			Pods: 1, EdgePerPod: max(2, leaves), AggPerPod: spines,
			NodesPerEdge: npe,
		}
	}
	// Three-level: 4 edge switches per pod (more when the pod count
	// would blow the radix-64 core port budget), 2 aggs, 2 cores per
	// plane. Aggregation ports cap EdgePerPod at radix - CorePerAgg.
	epp := max(4, (leaves+RosettaRadix-1)/RosettaRadix)
	epp = min(epp, RosettaRadix-2)
	pods := max(2, (leaves+epp-1)/epp)
	cfg := FatTreeConfig{
		Pods: pods, EdgePerPod: epp, AggPerPod: 2, CorePerAgg: 2,
		NodesPerEdge: npe,
	}
	// Systems past what 64-port switches can cable (~250k nodes) get a
	// correspondingly larger hypothetical radix rather than a config
	// that fails its own Validate.
	for radix := RosettaRadix; cfg.Validate() != nil; radix *= 2 {
		cfg.Radix = radix * 2
	}
	return cfg
}
