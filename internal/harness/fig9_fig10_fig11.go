package harness

import (
	"math"

	"repro/internal/placement"
	"repro/internal/results"
	"repro/internal/stats"
)

func init() {
	Register(Experiment{
		Name:           "fig9",
		Desc:           "congestion-impact heatmap: victims vs (system, aggressor, split)",
		DefaultOptions: Options{Nodes: 48, MinIters: 4, MaxIters: 10},
		MinNodes:       MinCellNodes,
		Run:            fig9,
	})
	Register(Experiment{
		Name:           "fig10",
		Desc:           "impact distributions across allocation policies (panels A/B/C)",
		DefaultOptions: Options{Nodes: 48, MinIters: 3, MaxIters: 8},
		MinNodes:       MinCellNodes,
		// The paper's panel variants: B raises aggressor PPN (24 at
		// paper scale, 4 reduced), C shrinks the machine. Applied to
		// the raw options so an explicitly requested scale wins.
		Prepare: func(opt Options) Options {
			switch opt.Panel {
			case "B":
				if opt.PPN <= 1 {
					opt.PPN = 4
				}
			case "C":
				if opt.Nodes == 0 {
					opt.Nodes = 24
				}
			}
			return opt
		},
		Run: fig10,
	})
	Register(Experiment{
		Name:           "fig11",
		Desc:           "full-system application heatmap under congestion (random allocation)",
		DefaultOptions: Options{Nodes: 64, MinIters: 3, MaxIters: 8},
		MinNodes:       MinCellNodes,
		Run:            fig11,
	})
}

// heatRow is one row of a congestion heatmap: its key cells, and the
// cell every victim column of the row is measured in. measureRows fills
// the spec's scale, seed and engine fields from the options.
type heatRow struct {
	keys []results.Value
	spec CellSpec
}

// measureRows measures every row against every victim and returns the
// cells row-major. Each cell gets its seed (opt.Seed+1, +2, ... in
// row-major order) before any runs, and RunGrid fans the independent
// cells over its worker pool.
func measureRows(opt Options, rows []heatRow, victims []Victim) []CellResult {
	points := make([]GridPoint, 0, len(rows)*len(victims))
	seed := opt.Seed
	for _, row := range rows {
		spec := row.spec
		spec.Sys.Domains = opt.Domains
		spec.Sys.Fidelity = opt.fidelity()
		spec.TotalNodes = opt.Nodes
		spec.AggrPPN = opt.PPN
		spec.MinIters, spec.MaxIters = opt.MinIters, opt.MaxIters
		for _, v := range victims {
			seed++
			spec.Seed = seed
			points = append(points, GridPoint{Spec: spec, Victim: v})
		}
	}
	return RunGrid(points, opt.gridJobs())
}

// heatmap measures a congestion heatmap and writes it as the result's
// one table: the key columns, then one impact column per victim, N.A.
// where the victim cannot run at the row's node count.
func heatmap(opt Options, table string, keyCols []string, rows []heatRow, victims []Victim) *results.Result {
	cells := measureRows(opt, rows, victims)
	cols := append(make([]string, 0, len(keyCols)+len(victims)), keyCols...)
	for _, v := range victims {
		cols = append(cols, v.Label)
	}
	res := &results.Result{}
	t := res.AddTable(table, cols...)
	for i, row := range rows {
		vals := append(make([]results.Value, 0, len(cols)), row.keys...)
		for _, c := range cells[i*len(victims) : (i+1)*len(victims)] {
			if c.NA {
				vals = append(vals, results.NA())
			} else {
				vals = append(vals, results.Float(c.Impact, 1))
			}
		}
		t.Row(vals...)
	}
	return res
}

// congestionRows lists the rows of a victim/aggressor heatmap: every
// system x aggressor x victim split under one allocation policy, keyed
// by system name, aggressor and aggressor fraction.
func congestionRows(systems []System, alloc placement.Policy, splits []float64) []heatRow {
	var rows []heatRow
	for _, sys := range systems {
		for _, kind := range []AggressorKind{AlltoallAggressor, IncastAggressor} {
			for _, vf := range splits {
				rows = append(rows, heatRow{
					keys: []results.Value{
						results.String(sys.Name), results.String(kind.String()),
						results.Float(aggrFrac(vf), 2),
					},
					spec: CellSpec{Sys: sys, VictimFrac: vf, Aggressor: kind, Alloc: alloc},
				})
			}
		}
	}
	return rows
}

// Fig9Splits are the paper's victim/aggressor splits: ~90/10, ~50/50,
// ~10/90 (chosen so victims run at even, power-of-two and odd node
// counts).
var Fig9Splits = [...]float64{0.9, 0.5, 0.1}

// fig9 reproduces the congestion-impact heatmap of Fig. 9 — victims as
// columns; (system, aggressor, split) as rows — on both systems with
// linear allocation (the paper's worst case: 93x on Aries, 1.3x on
// Slingshot). The paper runs 512-node experiments on 698- and
// 1024-node machines; the same headroom ratio is kept here so a linear
// split cannot align the two jobs onto disjoint Dragonfly groups (which
// would eliminate the interference the experiment studies).
func fig9(opt Options) (*results.Result, error) {
	rows := congestionRows(gridSystems(opt.Nodes), placement.Linear, Fig9Splits[:])
	return heatmap(opt, "heatmap", []string{"system", "aggressor", "aggr_frac"}, rows, Victims(opt.Victims)), nil
}

// gridSystems builds the Aries and Slingshot machines with the paper's
// machine-size/experiment-size headroom (698/512 and 1024/512).
func gridSystems(nodes int) []System {
	return []System{Crystal(nodes * 3 / 2), Shandy(nodes * 2)}
}

// fig10 reproduces one panel of Fig. 10 (A: allocations at 1 PPN, B:
// aggressor at high PPN, C: reduced node count): per system and
// allocation policy, the distribution of congestion impacts across all
// victim/aggressor combinations of the Fig. 9 grid.
func fig10(opt Options) (*results.Result, error) {
	victims := Victims(opt.Victims)
	res := &results.Result{}
	t := res.AddTable("panel "+opt.Panel, "system", "allocation", "median_C", "p95_C", "max_C")
	for _, sys := range gridSystems(opt.Nodes) {
		for _, alloc := range []placement.Policy{placement.Linear, placement.Interleaved, placement.Random} {
			cells := measureRows(opt, congestionRows([]System{sys}, alloc, Fig9Splits[:]), victims)
			sample := stats.NewSample(64)
			max := 0.0
			for _, c := range cells {
				if c.NA || math.IsNaN(c.Impact) {
					continue
				}
				sample.Add(c.Impact)
				if c.Impact > max {
					max = c.Impact
				}
			}
			t.Row(
				results.String(sys.Name), results.String(alloc.String()),
				results.Float(sample.Median(), 2), results.Float(sample.Percentile(95), 2),
				results.Float(max, 1),
			)
		}
	}
	return res, nil
}

// Fig11Splits are the victim fractions of Fig. 11.
var Fig11Splits = [...]float64{0.75, 0.5, 0.25}

// fig11 reproduces the full-system heatmap of Fig. 11: the application
// victims under congestion using all nodes of Shandy with random
// allocation (the paper: that is the allocation generating the most
// congestion), with N.A. entries where MILC/HPCG cannot run
// (non-power-of-two victim node count).
func fig11(opt Options) (*results.Result, error) {
	rows := congestionRows([]System{Shandy(opt.Nodes)}, placement.Random, Fig11Splits[:])
	return heatmap(opt, "heatmap", []string{"system", "aggressor", "aggr_frac"}, rows, Victims(VictimsApps)), nil
}
