// Package topology builds the Dragonfly networks used by Slingshot systems
// (§II-B of the paper): groups of switches that are fully connected
// internally by electrical links and fully connected to every other group
// by optical global links, giving a diameter of three switch-to-switch hops.
//
// The package is purely structural: it knows switches, nodes, links, and
// paths. Queuing, routing decisions and timing live in internal/fabric.
package topology

import (
	"fmt"

	"repro/internal/phy"
	"repro/internal/sim"
)

// SwitchID identifies a switch, numbered group-major:
// id = group*SwitchesPerGroup + indexInGroup.
type SwitchID int

// NodeID identifies an endpoint (a NIC), numbered switch-major:
// id = switch*NodesPerSwitch + portIndex.
type NodeID int

// GroupID identifies a Dragonfly group.
type GroupID int

// LinkKind distinguishes the three cable types of a Slingshot system.
type LinkKind uint8

const (
	// EdgeLink connects a node's NIC to its switch (copper, <= 2.6 m).
	EdgeLink LinkKind = iota
	// LocalLink connects two switches in the same group (copper).
	LocalLink
	// GlobalLink connects switches in different groups (optical, <= 100 m).
	GlobalLink
)

func (k LinkKind) String() string {
	switch k {
	case EdgeLink:
		return "edge"
	case LocalLink:
		return "local"
	case GlobalLink:
		return "global"
	}
	return "unknown"
}

// Propagation is the cable delay of a link of this kind: the edge copper
// run, a copper local link, or an optical global link.
func (k LinkKind) Propagation() sim.Time {
	switch k {
	case EdgeLink:
		return phy.EdgeDelay()
	case LocalLink:
		return phy.CopperDelay()
	}
	return phy.OpticalDelay()
}

// Link is one bidirectional cable between two switches (or between a node
// and its switch for EdgeLink, in which case A is the switch and Node is
// set). Parallel cables between the same pair are distinct Links.
type Link struct {
	ID   int
	Kind LinkKind
	A, B SwitchID
	Node NodeID // only for EdgeLink; otherwise -1
}

// GroupShape selects the intra-group wiring.
type GroupShape int

const (
	// FullMesh connects every pair of switches in a group directly — the
	// Slingshot arrangement (§II-B).
	FullMesh GroupShape = iota
	// Grid2D arranges a group's switches in a rows x cols grid with
	// all-to-all links inside each row and inside each column — the Aries
	// arrangement (backplane rows, cable columns). Intra-group minimal
	// paths then take up to two hops through shared intermediate links,
	// which is how congestion trees on Aries reach traffic of unrelated
	// jobs inside a group.
	Grid2D
)

func (s GroupShape) String() string {
	if s == Grid2D {
		return "grid2d"
	}
	return "fullmesh"
}

// Config describes a Dragonfly system.
type Config struct {
	Groups           int // number of groups (fully connected amongst themselves)
	SwitchesPerGroup int // switches in each group
	NodesPerSwitch   int // endpoints attached to each switch
	GlobalPerPair    int // parallel global links between every pair of groups
	Shape            GroupShape
	// GridRows is the row count for Grid2D groups (0 picks a near-square
	// factorization). SwitchesPerGroup must be divisible by it.
	GridRows int
}

// RosettaRadix is the port count of the Rosetta switch.
const RosettaRadix = 64

// Validate checks structural feasibility, including the switch port budget.
func (c Config) Validate() error {
	if c.Groups < 1 || c.SwitchesPerGroup < 1 || c.NodesPerSwitch < 1 {
		return fmt.Errorf("topology: non-positive size in %+v", c)
	}
	if c.Groups > 1 && c.GlobalPerPair < 1 {
		return fmt.Errorf("topology: %d groups but no global links", c.Groups)
	}
	rows, cols, err := c.gridDims()
	if err != nil {
		return err
	}
	local := c.SwitchesPerGroup - 1 // full mesh
	if c.Shape == Grid2D {
		local = (rows - 1) + (cols - 1)
	}
	globalPerGroup := c.GlobalPerPair * (c.Groups - 1)
	// Global links are distributed round-robin over a group's switches, so
	// the busiest switch owns ceil(globalPerGroup / SwitchesPerGroup).
	maxGlobal := (globalPerGroup + c.SwitchesPerGroup - 1) / c.SwitchesPerGroup
	need := c.NodesPerSwitch + local + maxGlobal
	if need > RosettaRadix {
		return fmt.Errorf("topology: switch needs %d ports (%d endpoints + %d local + %d global) but radix is %d",
			need, c.NodesPerSwitch, local, maxGlobal, RosettaRadix)
	}
	return nil
}

// gridDims resolves the Grid2D row/column dimensions.
func (c Config) gridDims() (rows, cols int, err error) {
	if c.Shape != Grid2D {
		return 1, c.SwitchesPerGroup, nil
	}
	rows = c.GridRows
	if rows == 0 {
		// Near-square factorization.
		for r := 1; r*r <= c.SwitchesPerGroup; r++ {
			if c.SwitchesPerGroup%r == 0 {
				rows = r
			}
		}
	}
	if rows < 1 || c.SwitchesPerGroup%rows != 0 {
		return 0, 0, fmt.Errorf("topology: %d switches per group not divisible into %d rows",
			c.SwitchesPerGroup, rows)
	}
	return rows, c.SwitchesPerGroup / rows, nil
}

// Dragonfly is an immutable built topology. The embedded adjacency and
// linkTable provide the dense neighbor tables, the link store and
// Valid/Diameter shared by every backend.
type Dragonfly struct {
	adjacency
	linkTable
	Cfg   Config
	nodes int
	// rows/cols of the intra-group grid (1 x SwitchesPerGroup for
	// FullMesh).
	rows, cols int
	// globalOut[g1][g2] lists link IDs connecting group g1 to group g2.
	globalOut [][][]int
}

// Dragonfly implements the backend-neutral Topology contract.
var _ Topology = (*Dragonfly)(nil)

// Build lets a Config act as a topology.Builder.
func (c Config) Build() (Topology, error) {
	d, err := New(c)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// New builds a Dragonfly from the config. The global links between each
// pair of groups are spread round-robin over the switches of both groups so
// no switch is oversubscribed, mirroring how Slingshot systems cable groups.
func New(cfg Config) (*Dragonfly, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rows, cols, _ := cfg.gridDims()
	d := &Dragonfly{
		Cfg:   cfg,
		nodes: cfg.Groups * cfg.SwitchesPerGroup * cfg.NodesPerSwitch,
		rows:  rows,
		cols:  cols,
	}
	// Per group: a full mesh, or all-to-all inside each grid row and
	// column; then GlobalPerPair links per pair of groups.
	local := cols * (cols - 1) / 2 * rows
	if cfg.Shape == Grid2D {
		local += rows * (rows - 1) / 2 * cols
	}
	globals := cfg.Groups * (cfg.Groups - 1) / 2 * cfg.GlobalPerPair
	d.reserve(d.nodes + cfg.Groups*local + globals)
	// One spine holds every group's row of globalOut.
	d.globalOut = make([][][]int, cfg.Groups)
	spine := make([][]int, cfg.Groups*cfg.Groups)
	for g := range d.globalOut {
		d.globalOut[g] = spine[g*cfg.Groups : (g+1)*cfg.Groups : (g+1)*cfg.Groups]
	}

	// Edge links: node n attaches to switch n / NodesPerSwitch.
	d.addEdgeLinks(d.nodes, cfg.NodesPerSwitch)

	// Local links: full mesh within each group, or — for Grid2D (Aries) —
	// all-to-all inside each row and inside each column.
	for g := 0; g < cfg.Groups; g++ {
		base := SwitchID(g * cfg.SwitchesPerGroup)
		for i := 0; i < cfg.SwitchesPerGroup; i++ {
			for j := i + 1; j < cfg.SwitchesPerGroup; j++ {
				if cfg.Shape == Grid2D {
					// Switch index i sits at (i/cols, i%cols).
					ri, ci := i/d.cols, i%d.cols
					rj, cj := j/d.cols, j%d.cols
					if ri != rj && ci != cj {
						continue
					}
				}
				d.addLink(LocalLink, base+SwitchID(i), base+SwitchID(j), -1)
			}
		}
	}

	// Global links: GlobalPerPair parallel links between every pair of
	// groups, each endpoint assigned round-robin over the group's switches.
	// A pair's links take consecutive IDs, and both directions of the
	// pair share one list of them, carved from one backing array.
	rr := make([]int, cfg.Groups) // next switch index per group
	ids := make([]int, 0, globals)
	for g1 := 0; g1 < cfg.Groups; g1++ {
		for g2 := g1 + 1; g2 < cfg.Groups; g2++ {
			first := len(ids)
			for k := 0; k < cfg.GlobalPerPair; k++ {
				a := SwitchID(g1*cfg.SwitchesPerGroup + rr[g1])
				b := SwitchID(g2*cfg.SwitchesPerGroup + rr[g2])
				rr[g1] = (rr[g1] + 1) % cfg.SwitchesPerGroup
				rr[g2] = (rr[g2] + 1) % cfg.SwitchesPerGroup
				ids = append(ids, d.addLink(GlobalLink, a, b, -1))
			}
			pair := ids[first:len(ids):len(ids)]
			d.globalOut[g1][g2], d.globalOut[g2][g1] = pair, pair
		}
	}
	d.initAdjacency(cfg.Groups*cfg.SwitchesPerGroup, d.links)
	return d, nil
}

// MustNew is New but panics on error; for tests and fixed example configs.
func MustNew(cfg Config) *Dragonfly {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Kind names the backend.
func (d *Dragonfly) Kind() string { return "dragonfly" }

// Nodes returns the endpoint count.
func (d *Dragonfly) Nodes() int { return d.nodes }

// SwitchNodes returns the contiguous node range attached to switch s.
func (d *Dragonfly) SwitchNodes(s SwitchID) (first NodeID, count int) {
	nps := d.Cfg.NodesPerSwitch
	return NodeID(int(s) * nps), nps
}

// GroupOf returns the group containing switch s.
func (d *Dragonfly) GroupOf(s SwitchID) GroupID {
	return GroupID(int(s) / d.Cfg.SwitchesPerGroup)
}

// SwitchOf returns the switch that node n attaches to.
func (d *Dragonfly) SwitchOf(n NodeID) SwitchID {
	return SwitchID(int(n) / d.Cfg.NodesPerSwitch)
}

// GroupOfNode returns the group containing node n.
func (d *Dragonfly) GroupOfNode(n NodeID) GroupID {
	return d.GroupOf(d.SwitchOf(n))
}

// GlobalLinks returns the IDs of the global links between groups g1 and
// g2. The slice is the topology's own (shared by both directions of the
// pair); callers must not modify it.
func (d *Dragonfly) GlobalLinks(g1, g2 GroupID) []int {
	if g1 == g2 {
		return nil
	}
	return d.globalOut[g1][g2]
}

// GatewaysTo returns the switches in group g that own a global link to
// group tg. The result is deduplicated and deterministic (sorted by link
// discovery order).
func (d *Dragonfly) GatewaysTo(g, tg GroupID) []SwitchID {
	ids := d.globalOut[g][tg]
	seen := make(map[SwitchID]bool, len(ids))
	var out []SwitchID
	for _, id := range ids {
		l := d.links[id]
		s := l.A
		if d.GroupOf(s) != g {
			s = l.B
		}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// InterSwitchHops returns the number of switch-to-switch hops on the
// minimal path between the switches of nodes a and b: 0 for the same
// switch, 1 within a full-mesh group (up to 2 on a Grid2D group), and up
// to 3 across full-mesh groups — the Dragonfly diameter of §II-B.
func (d *Dragonfly) InterSwitchHops(a, b NodeID) int {
	sa, sb := d.SwitchOf(a), d.SwitchOf(b)
	if sa == sb {
		return 0
	}
	best := -1
	for _, p := range d.MinimalPaths(sa, sb, 8) {
		if h := p.InterSwitchHops(); best < 0 || h < best {
			best = h
		}
	}
	return best
}
