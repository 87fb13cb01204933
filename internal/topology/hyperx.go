package topology

import (
	"fmt"

	"repro/internal/sim"
)

// This file implements HyperX — the generalized flattened butterfly: an
// L-dimensional array of switches, fully connected along every
// dimension-aligned row, so a minimal route corrects each differing
// coordinate with exactly one hop (diameter = L). It is the third point
// of the paper's design space: direct like the Dragonfly but without its
// group hierarchy, and an all-switch-to-switch contrast to the fat-tree's
// indirect core.

// HyperXConfig describes a HyperX / flattened-butterfly system.
type HyperXConfig struct {
	// Dims lists the switch count along each dimension (each >= 2).
	// A switch's ID encodes its coordinates with dimension 0 least
	// significant: id = c0 + Dims[0]*(c1 + Dims[1]*(c2 + ...)).
	Dims []int
	// NodesPerSwitch is the endpoint count per switch.
	NodesPerSwitch int
}

// Validate checks structural feasibility, including the port budget.
func (c HyperXConfig) Validate() error {
	if len(c.Dims) == 0 || c.NodesPerSwitch < 1 {
		return fmt.Errorf("topology: bad HyperX config %+v", c)
	}
	ports := c.NodesPerSwitch
	for _, s := range c.Dims {
		if s < 2 {
			return fmt.Errorf("topology: HyperX dimension of size %d (want >= 2)", s)
		}
		ports += s - 1
	}
	if ports > RosettaRadix {
		return fmt.Errorf("topology: HyperX switch needs %d ports but radix is %d", ports, RosettaRadix)
	}
	return nil
}

// Build lets a HyperXConfig act as a topology.Builder.
func (c HyperXConfig) Build() (Topology, error) { return NewHyperX(c) }

// HyperX is an immutable built flattened-butterfly topology.
type HyperX struct {
	adjacency
	linkTable
	Cfg   HyperXConfig
	nodes int
	// stride[d] is the ID weight of coordinate d.
	stride []int
}

var _ Topology = (*HyperX)(nil)

// NewHyperX builds a HyperX from the config. Wiring is deterministic:
// edge links first (node-major), then for each switch in ID order its
// row links per dimension towards higher-coordinate partners. Links in
// dimension 0 are electrical (rack-internal rows); higher dimensions are
// optical like Dragonfly global links.
func NewHyperX(cfg HyperXConfig) (*HyperX, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sw := 1
	stride := make([]int, len(cfg.Dims))
	for d, s := range cfg.Dims {
		stride[d] = sw
		sw *= s
	}
	h := &HyperX{
		Cfg:    cfg,
		nodes:  sw * cfg.NodesPerSwitch,
		stride: stride,
	}
	h.initAdjacency(sw)

	// Edge links: node n attaches to switch n / NodesPerSwitch.
	h.addEdgeLinks(h.nodes, cfg.NodesPerSwitch)

	// Row links: for every switch, every dimension, every partner with a
	// higher coordinate in that dimension (so each pair is wired once).
	for s := 0; s < sw; s++ {
		for d, size := range cfg.Dims {
			c := (s / stride[d]) % size
			kind := LocalLink
			if d > 0 {
				kind = GlobalLink
			}
			for t := c + 1; t < size; t++ {
				a, b := SwitchID(s), SwitchID(s+(t-c)*stride[d])
				h.addLink(kind, a, b, -1)
				h.addAdj(a, b)
			}
		}
	}
	return h, nil
}

// coordsInto decomposes a switch ID into the given coordinate buffer.
func (h *HyperX) coordsInto(s SwitchID, buf []int) []int {
	for d, size := range h.Cfg.Dims {
		buf[d] = (int(s) / h.stride[d]) % size
	}
	return buf
}

// Kind names the backend.
func (h *HyperX) Kind() string { return "hyperx" }

// Nodes returns the endpoint count.
func (h *HyperX) Nodes() int { return h.nodes }

// SwitchOf returns the switch that node n attaches to.
func (h *HyperX) SwitchOf(n NodeID) SwitchID {
	return SwitchID(int(n) / h.Cfg.NodesPerSwitch)
}

// SwitchNodes returns the contiguous node range attached to switch s.
func (h *HyperX) SwitchNodes(s SwitchID) (first NodeID, count int) {
	nps := h.Cfg.NodesPerSwitch
	return NodeID(int(s) * nps), nps
}

// MinimalPaths enumerates up to max minimal paths: one per ordering of
// the differing dimensions (dimension-order routing along each), in
// deterministic lexicographic-permutation order. The minimal length is
// the Hamming distance of the coordinates — at most len(Dims) hops.
func (h *HyperX) MinimalPaths(src, dst SwitchID, max int) []Path {
	if max <= 0 {
		max = RouteCandidates
	}
	if src == dst {
		return []Path{{src}}
	}
	sc := h.coordsInto(src, make([]int, len(h.Cfg.Dims)))
	dc := h.coordsInto(dst, make([]int, len(h.Cfg.Dims)))
	var diff []int
	for d := range sc {
		if sc[d] != dc[d] {
			diff = append(diff, d)
		}
	}
	var out []Path
	perm := make([]int, 0, len(diff))
	used := make([]bool, len(diff))
	var walk func()
	//simlint:allocok -- recursion over dimension permutations; results are cached per (src,dst) by the fabric's path cache
	walk = func() {
		if len(out) >= max {
			return
		}
		if len(perm) == len(diff) {
			p := Path{src}
			cur := src
			for _, d := range perm {
				cur += SwitchID((dc[d] - sc[d]) * h.stride[d])
				p = append(p, cur)
			}
			out = append(out, p)
			return
		}
		for i, d := range diff {
			if used[i] {
				continue
			}
			used[i] = true
			perm = append(perm, d)
			walk()
			perm = perm[:len(perm)-1]
			used[i] = false
		}
	}
	walk()
	return out
}

// arenaDOR builds the first-choice (ascending-dimension) minimal path in
// the arena. src == dst yields the single-switch path.
func (h *HyperX) arenaDOR(a *PathArena, src, dst SwitchID) Path {
	sc := h.coordsInto(src, a.coordA)
	dc := h.coordsInto(dst, a.coordB)
	s := len(a.pathNodes)
	a.pathNodes = append(a.pathNodes, src)
	cur := src
	for d := range sc {
		if sc[d] != dc[d] {
			cur += SwitchID((dc[d] - sc[d]) * h.stride[d])
			a.pathNodes = append(a.pathNodes, cur)
		}
	}
	return a.pathNodes[s:len(a.pathNodes):len(a.pathNodes)]
}

// NonMinimalPaths enumerates up to max Valiant detours in the caller's
// arena, via a random intermediate switch with dimension-order routing to
// it and onwards. rng draws follow a fixed order so replays are
// deterministic; nil rng starts from switch 0. The returned paths live in
// the arena, which the next call on it reuses.
func (h *HyperX) NonMinimalPaths(a *PathArena, src, dst SwitchID, rng *sim.RNG, max int) []Path {
	if max <= 0 {
		max = 2
	}
	if src == dst || h.sw <= 2 {
		return nil
	}
	a.ensureCoords(len(h.Cfg.Dims)) //simlint:allocok -- one-time lazy growth per arena; steady state reuses
	a.pathNodes = a.pathNodes[:0]
	out := a.outPaths[:0]
	defer func() { a.outPaths = out[:0] }() //simlint:allocok -- non-escaping open-coded defer; stays on the stack
	start := 0
	if rng != nil {
		start = rng.Intn(h.sw)
	}
	// A window of candidate intermediates bounds the scan on big systems;
	// detours through distinct intermediates rarely collide, so a handful
	// of candidates is enough to fill max.
	tries := h.sw
	if tries > 4*max+2 {
		tries = 4*max + 2
	}
	for i := 0; i < tries && len(out) < max; i++ {
		mid := SwitchID((start + i) % h.sw)
		if mid == src || mid == dst {
			continue
		}
		// The two DOR segments are built before composing, so the compose
		// sees both and can reject revisits (e.g. mid sharing a row with
		// both endpoints can route back through src).
		seg1 := h.arenaDOR(a, src, mid)
		seg2 := h.arenaDOR(a, mid, dst)
		if p := a.arenaCompose(seg1, seg2); p != nil {
			out = append(out, p)
		}
	}
	return out
}

// BisectionLinks returns the row links crossing the even ID bisection of
// the switches. With an even highest dimension this is the textbook
// HyperX cut: (S/2)*(S-S/2) links per highest-dimension row
// times the number of such rows.
func (h *HyperX) BisectionLinks() int {
	half := SwitchID(h.sw / 2)
	n := 0
	for _, l := range h.links {
		if l.Kind != EdgeLink && (l.A < half) != (l.B < half) {
			n++
		}
	}
	return n
}

// HyperXFor returns a near-regular HyperX covering at least n nodes,
// mirroring the reduced-scale Dragonfly sizing. It starts from a
// near-square 2D array and adds dimensions when a flat array would blow
// the radix-64 port budget (each dimension of size S costs S-1 ports),
// so the returned config always passes Validate.
func HyperXFor(n int) HyperXConfig {
	if n < 1 {
		n = 1
	}
	nps := scaledEndpointsPerSwitch(n)
	sw := (n + nps - 1) / nps
	for ndims := 2; ; ndims++ {
		// Near-regular factorization: every dimension the ndims-th root
		// (rounded up), the last sized to just cover the remainder.
		side := 2
		for pow(side, ndims) < sw {
			side++
		}
		dims := make([]int, ndims)
		rest := sw
		for d := 0; d < ndims-1; d++ {
			dims[d] = side
			rest = (rest + side - 1) / side
		}
		dims[ndims-1] = max(2, rest)
		cfg := HyperXConfig{Dims: dims, NodesPerSwitch: nps}
		if cfg.Validate() == nil {
			return cfg
		}
	}
}

// pow is integer exponentiation for the small sizing arithmetic above.
func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}
