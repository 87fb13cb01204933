package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/results"
	"repro/internal/topology"
)

// gridTable is the policy-compare result table; its first gridKeys
// columns name the row (topology, routing, CC), the rest are victims.
const (
	gridTable = "policy grid"
	gridKeys  = 3
)

// gridCheck is the outcome of checking one policy-compare result.
type gridCheck struct {
	cells, failed, na int64
}

// checkGrid checks a policy-compare result cell by cell. With a golden
// result every victim cell must equal the golden cell (the same value, or
// N.A. in both), and every differing cell is one failure. Without one (a
// seed the golden file was not made at) a cell fails when its impact is
// not finite, or N.A. for a victim that can run at any node count.
func checkGrid(got, want *results.Result, pow2Only map[string]bool) (gridCheck, error) {
	var c gridCheck
	t, err := table(got, gridTable)
	if err != nil {
		return c, err
	}
	var wt *results.Table
	if want != nil {
		if wt, err = table(want, gridTable); err != nil {
			return c, fmt.Errorf("golden: %w", err)
		}
		if len(wt.Rows) != len(t.Rows) || len(wt.Columns) != len(t.Columns) {
			return c, fmt.Errorf("grid is %dx%d, golden %dx%d", len(t.Rows), len(t.Columns), len(wt.Rows), len(wt.Columns))
		}
	}
	for i, row := range t.Rows {
		for j := gridKeys; j < len(row); j++ {
			c.cells++
			v := row[j]
			if v.IsNA() {
				c.na++
			}
			var ok bool
			if wt != nil {
				ok = sameKeys(row, wt.Rows[i]) && sameCell(v, wt.Rows[i][j])
			} else {
				// Float64 has no value for N.A. and non-finite cells.
				_, ok = v.Float64()
				ok = ok || (v.Kind == results.KindNA && pow2Only[t.Columns[j]])
			}
			if !ok {
				c.failed++
			}
		}
	}
	return c, nil
}

// table returns the named table of a result.
func table(r *results.Result, name string) (*results.Table, error) {
	for _, t := range r.Tables {
		if t.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("no %q table", name)
}

// sameKeys reports whether two grid rows name the same policy triple.
func sameKeys(a, b []results.Value) bool {
	for k := 0; k < gridKeys; k++ {
		if a[k].Kind != results.KindString || b[k].Kind != results.KindString || a[k].Str != b[k].Str {
			return false
		}
	}
	return true
}

// sameCell reports whether two result cells hold the same value: both
// N.A., or numerically equal (a decoded golden cell of 1 is an int).
func sameCell(a, b results.Value) bool {
	if a.IsNA() || b.IsNA() {
		return a.IsNA() && b.IsNA()
	}
	x, okA := a.Float64()
	y, okB := b.Float64()
	return okA && okB && x == y
}

// pairGen draws the endpoint pairs of the synthetic workloads from the
// workload seed over a Dragonfly of groups × perGroup nodes (both at
// least 2). It never returns src == dst: a loopback message bypasses the
// fabric (and the fluid engine), which would inflate the completion
// count.
type pairGen struct {
	rng              *rand.Rand
	groups, perGroup int
}

func newPairGen(seed uint64, groups, perGroup int) *pairGen {
	return &pairGen{rng: rand.New(rand.NewPCG(seed, 0x5eed)), groups: groups, perGroup: perGroup}
}

// except draws uniformly from [0, n) without x.
func (g *pairGen) except(n, x int) int {
	v := g.rng.IntN(n - 1)
	if v >= x {
		v++
	}
	return v
}

func (g *pairGen) node(group, idx int) topology.NodeID {
	return topology.NodeID(group*g.perGroup + idx)
}

// crossGroup draws a pair in two different groups.
func (g *pairGen) crossGroup() (src, dst topology.NodeID) {
	sg := g.rng.IntN(g.groups)
	dg := g.except(g.groups, sg)
	return g.node(sg, g.rng.IntN(g.perGroup)), g.node(dg, g.rng.IntN(g.perGroup))
}

// intraGroup draws two different nodes of one group.
func (g *pairGen) intraGroup() (src, dst topology.NodeID) {
	grp := g.rng.IntN(g.groups)
	s := g.rng.IntN(g.perGroup)
	return g.node(grp, s), g.node(grp, g.except(g.perGroup, s))
}

// bisection draws a pair whose groups lie half the group ring apart, so
// every such flow crosses the machine's bisection.
func (g *pairGen) bisection() (src, dst topology.NodeID) {
	sg := g.rng.IntN(g.groups)
	dg := (sg + g.groups/2) % g.groups
	return g.node(sg, g.rng.IntN(g.perGroup)), g.node(dg, g.rng.IntN(g.perGroup))
}

// into draws a source for a message to dst.
func (g *pairGen) into(dst topology.NodeID) topology.NodeID {
	return topology.NodeID(g.except(g.groups*g.perGroup, int(dst)))
}

// any draws any node.
func (g *pairGen) any() topology.NodeID {
	return topology.NodeID(g.rng.IntN(g.groups * g.perGroup))
}
