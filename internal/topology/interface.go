package topology

import "repro/internal/sim"

// Topology is the structural contract every network backend (Dragonfly,
// fat-tree, HyperX) satisfies. It is purely structural — switches, nodes,
// links, and candidate paths; queuing, routing decisions and timing live in
// internal/fabric, which builds its runtime state from this interface alone.
//
// Contracts every implementation must honour:
//
//   - Dense IDs: switches are numbered 0..Switches()-1 and nodes
//     0..Nodes()-1, so consumers can slice-index per-switch and per-node
//     state. Nodes are numbered switch-major: all of one switch's nodes are
//     contiguous and switch order follows node order.
//   - Dense adjacency: NeighborIndex(a, b) is a stable index into a's
//     neighbor list (the order Neighbors reports) for the lifetime of the
//     topology, or -1 when not adjacent. The routing hot path does zero map
//     lookups per hop.
//   - Arena reuse: NonMinimalPaths builds its candidates in the caller's
//     PathArena, which the next call on that arena overwrites. Callers
//     must copy any path they retain past their routing decision; the
//     topology itself is immutable, so callers with their own arenas may
//     route on it from several goroutines.
//   - RNG-stream stability: MinimalPaths is deterministic and RNG-free (so
//     it can be cached); NonMinimalPaths draws from rng in a fixed,
//     input-determined order, and a nil rng yields deterministic
//     first-choice detours. Replays with the same seed see the same paths.
type Topology interface {
	// Kind names the backend: "dragonfly", "fattree", or "hyperx".
	Kind() string

	// Structure.
	Switches() int
	Nodes() int
	Links() []Link
	SwitchOf(NodeID) SwitchID
	// SwitchNodes returns the contiguous node range attached to a switch
	// (count is 0 for switches without endpoints, e.g. fat-tree spines).
	SwitchNodes(SwitchID) (first NodeID, count int)

	// Dense adjacency.
	NeighborIndex(a, b SwitchID) int
	NeighborCount(SwitchID) int
	Neighbors(SwitchID) []SwitchID

	// Routing candidates. NonMinimalPaths builds in the caller's arena.
	MinimalPaths(src, dst SwitchID, max int) []Path
	NonMinimalPaths(a *PathArena, src, dst SwitchID, rng *sim.RNG, max int) []Path

	// Partition returns the backend's domain decomposition for
	// conservative parallel simulation (see Partition's doc).
	Partition() Partition

	// Metrics and validation.
	Valid(Path) bool
	BisectionLinks() int
	Diameter() int
}

// Builder constructs a Topology from a validated configuration. The three
// backend configs (Config, FatTreeConfig, HyperXConfig) all implement it,
// so profiles and harness systems can carry "which network to build"
// without naming a concrete type.
type Builder interface {
	Build() (Topology, error)
}

// MustBuild is Build but panics on error; for tests and fixed configs.
func MustBuild(b Builder) Topology {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// RouteCandidates is how many paths a source switch weighs per routing
// decision (§II-C: up to four minimal and non-minimal candidates). The
// fabric and the fluid engine cache this many minimal paths per switch
// pair.
const RouteCandidates = 4

// LinkSlotBase numbers t's directed switch-to-switch links densely,
// switch by switch in NeighborIndex order: the link from a to its
// neighbor b has slot base[a] + NeighborIndex(a, b), and base[Switches()]
// is the number of slots. Per-link tables (the fabric's load snapshot and
// background load, the fluid engine's segments) all index by it.
func LinkSlotBase(t Topology) []int32 {
	base := make([]int32, t.Switches()+1)
	for s := 0; s < t.Switches(); s++ {
		base[s+1] = base[s] + int32(t.NeighborCount(SwitchID(s)))
	}
	return base
}

// adjacency is the slice-indexed neighbor structure shared by every
// backend (no maps — the routing hot path queries it per hop): adj[s]
// lists s's neighbor switches in link-discovery order, and adjIndex[s][t]
// the index i such that adj[s][i] == t, or -1 when s and t are not
// adjacent.
type adjacency struct {
	sw  int
	adj [][]SwitchID
	// adjIndex is the dense sw x sw lookup matrix. Its O(sw^2) footprint
	// is fine for experiment-scale fabrics but fatal at million-endpoint
	// scale (65k switches would need a 17 GB matrix), so fabrics above
	// denseAdjSwitches use per-row sorted neighbor lists (nbSorted with
	// parallel nbSlot) and binary search instead — ~5 probes at realistic
	// radices, still allocation-free on the per-hop path.
	adjIndex [][]int32
	nbSorted [][]SwitchID
	nbSlot   [][]int32
	// diam caches the BFS diameter (-1 until first asked for).
	diam int
}

// denseAdjSwitches is the largest switch count that keeps the dense
// index matrix (2048^2 x 4 B = 16 MB); every golden- and bench-scale
// topology is far below it, so their lookup path is unchanged.
const denseAdjSwitches = 2048

// initAdjacency sizes the structure for sw switches. The adjIndex rows
// share one backing slice to keep the matrix a single allocation.
func (m *adjacency) initAdjacency(sw int) {
	m.sw = sw
	m.diam = -1
	m.adj = make([][]SwitchID, sw)
	if sw > denseAdjSwitches {
		m.nbSorted = make([][]SwitchID, sw)
		m.nbSlot = make([][]int32, sw)
		return
	}
	m.adjIndex = make([][]int32, sw)
	idx := make([]int32, sw*sw)
	for i := range idx {
		idx[i] = -1
	}
	for i := range m.adjIndex {
		m.adjIndex[i] = idx[i*sw : (i+1)*sw]
	}
}

// lookup returns b's dense slot in a's neighbor list, or -1.
func (m *adjacency) lookup(a, b SwitchID) int32 {
	if m.adjIndex != nil {
		return m.adjIndex[a][b]
	}
	row := m.nbSorted[a]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo] == b {
		return m.nbSlot[a][lo]
	}
	return -1
}

// addAdj records a link between a and b in both directions of the
// adjacency; parallel links add nothing past the first.
func (m *adjacency) addAdj(a, b SwitchID) {
	m.addAdjDir(a, b)
	m.addAdjDir(b, a)
}

// addAdjDir makes b a neighbor of a, at the next index of a's neighbor
// list, unless it already is one.
func (m *adjacency) addAdjDir(a, b SwitchID) {
	if m.lookup(a, b) >= 0 {
		return
	}
	i := int32(len(m.adj[a]))
	if m.adjIndex != nil {
		m.adjIndex[a][b] = i
	} else {
		row, slot := m.nbSorted[a], m.nbSlot[a]
		pos := 0
		for pos < len(row) && row[pos] < b {
			pos++
		}
		row = append(row, 0)
		slot = append(slot, 0)
		copy(row[pos+1:], row[pos:])
		copy(slot[pos+1:], slot[pos:])
		row[pos], slot[pos] = b, i
		m.nbSorted[a], m.nbSlot[a] = row, slot
	}
	m.adj[a] = append(m.adj[a], b)
}

// localAdjacent reports whether two distinct switches share a direct link.
func (m *adjacency) localAdjacent(a, b SwitchID) bool {
	return m.lookup(a, b) >= 0
}

// Switches returns the switch count.
func (m *adjacency) Switches() int { return m.sw }

// NeighborIndex returns b's dense index in a's neighbor list (the order
// Neighbors reports), or -1 when the switches are not adjacent. The index
// is stable for the lifetime of the topology, so per-switch runtime state
// (e.g. fabric egress-port tables) can be slice-indexed by it — the
// routing hot path does zero map lookups per hop.
func (m *adjacency) NeighborIndex(a, b SwitchID) int {
	return int(m.lookup(a, b))
}

// NeighborCount returns the number of switches adjacent to s.
func (m *adjacency) NeighborCount(s SwitchID) int { return len(m.adj[s]) }

// Neighbors returns the switches adjacent to s, in deterministic
// link-discovery order (the same order NeighborIndex indexes).
func (m *adjacency) Neighbors(s SwitchID) []SwitchID {
	out := make([]SwitchID, len(m.adj[s]))
	copy(out, m.adj[s])
	return out
}

// Valid reports whether every consecutive pair in the path is adjacent and
// no switch repeats. Used by tests and debug assertions.
func (m *adjacency) Valid(p Path) bool {
	if len(p) == 0 {
		return false
	}
	seen := make(map[SwitchID]bool, len(p))
	for i, s := range p {
		if s < 0 || int(s) >= m.sw || seen[s] {
			return false
		}
		seen[s] = true
		if i > 0 && m.lookup(p[i-1], s) < 0 {
			return false
		}
	}
	return true
}

// Diameter returns the switch-graph diameter (longest shortest path in
// switch-to-switch hops), computed by BFS on first use and cached. Not a
// hot path: it backs structural tests and topoinfo-style reporting.
func (m *adjacency) Diameter() int {
	if m.diam >= 0 {
		return m.diam
	}
	dist := make([]int, m.sw)
	queue := make([]SwitchID, 0, m.sw)
	diam := 0
	for s := 0; s < m.sw; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], SwitchID(s))
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range m.adj[cur] {
				if dist[nb] < 0 {
					dist[nb] = dist[cur] + 1
					if dist[nb] > diam {
						diam = dist[nb]
					}
					queue = append(queue, nb)
				}
			}
		}
	}
	m.diam = diam
	return diam
}

// linkTable is the link store shared by every backend: links in
// discovery order.
type linkTable struct {
	links []Link
}

// addLink appends one link, returning its ID (the slice index).
func (lt *linkTable) addLink(kind LinkKind, a, b SwitchID, node NodeID) int {
	id := len(lt.links)
	lt.links = append(lt.links, Link{ID: id, Kind: kind, A: a, B: b, Node: node})
	return id
}

// addEdgeLinks numbers the node-major edge links every backend starts
// with: node n attaches to switch n / perSwitch.
func (lt *linkTable) addEdgeLinks(nodes, perSwitch int) {
	for n := 0; n < nodes; n++ {
		s := SwitchID(n / perSwitch)
		lt.addLink(EdgeLink, s, s, NodeID(n))
	}
}

// Links returns every link of the topology in discovery order (edge
// links first, then the backend's inter-switch wiring); a link's slice
// index is its ID.
func (lt *linkTable) Links() []Link { return lt.links }

// PathArena is the path-construction scratch reused by NonMinimalPaths
// (one adaptive routing decision per packet on the hot path): candidate
// paths are built in pathNodes and collected in outPaths, so steady-state
// routing allocates nothing. Both are reset on every call, which is why
// NonMinimalPaths results must be copied if retained — and why one arena
// must not serve routing queries from multiple goroutines. The caller
// owns it: a fabric keeps one per simulation domain.
type PathArena struct {
	pathNodes []SwitchID
	outPaths  []Path
	// coordA/coordB are the coordinate scratch of the HyperX backend.
	coordA, coordB []int
}

// ensureCoords sizes the coordinate scratch to ndims, keeping capacity.
func (a *PathArena) ensureCoords(ndims int) {
	if cap(a.coordA) < ndims {
		a.coordA = make([]int, ndims)
		a.coordB = make([]int, ndims)
	}
	a.coordA, a.coordB = a.coordA[:ndims], a.coordB[:ndims]
}

// arenaPath appends the given switches as one arena-backed path.
func (a *PathArena) arenaPath(sw ...SwitchID) Path {
	s := len(a.pathNodes)
	a.pathNodes = append(a.pathNodes, sw...)
	return a.pathNodes[s:len(a.pathNodes):len(a.pathNodes)]
}

// arenaCompose concatenates path segments in the arena, merging equal
// junction switches. It returns nil if the result revisits a switch (the
// caller filters). The segments may themselves be arena-backed: they
// occupy earlier arena indices, so appending the composition after them
// never aliases its inputs.
func (a *PathArena) arenaCompose(segs ...Path) Path {
	s := len(a.pathNodes)
	for _, seg := range segs {
		for i, sw := range seg {
			out := a.pathNodes[s:]
			if len(out) > 0 && i == 0 && out[len(out)-1] == sw {
				continue // shared junction
			}
			for _, prev := range out {
				if prev == sw {
					a.pathNodes = a.pathNodes[:s] // revisit: discard
					return nil
				}
			}
			a.pathNodes = append(a.pathNodes, sw)
		}
	}
	return a.pathNodes[s:len(a.pathNodes):len(a.pathNodes)]
}
