package harness

import (
	"fmt"
	"math"

	"repro/internal/placement"
	"repro/internal/results"
	"repro/internal/stats"
)

var (
	fig9Defaults  = Options{Nodes: 48, MinIters: 4, MaxIters: 10}
	fig10Defaults = Options{Nodes: 48, MinIters: 3, MaxIters: 8}
	fig11Defaults = Options{Nodes: 64, MinIters: 3, MaxIters: 8}
)

func init() {
	Register(Experiment{
		Name:           "fig9",
		Desc:           "congestion-impact heatmap: victims vs (system, aggressor, split)",
		DefaultOptions: fig9Defaults,
		Run: func(opt Options) (*results.Result, error) {
			return Fig9Heatmap(opt, opt.Victims).Result(), nil
		},
	})
	Register(Experiment{
		Name:           "fig10",
		Desc:           "impact distributions across allocation policies (panels A/B/C)",
		DefaultOptions: fig10Defaults,
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
		Run: func(opt Options) (*results.Result, error) {
			return Fig10Distributions(opt, opt.Victims, opt.Panel).Result(), nil
		},
	})
	Register(Experiment{
		Name:           "fig11",
		Desc:           "full-system application heatmap under congestion (random allocation)",
		DefaultOptions: fig11Defaults,
		Run: func(opt Options) (*results.Result, error) {
			return Fig11FullScale(opt).Result(), nil
		},
	})
}

// Fig9Result is the congestion-impact heatmap of Fig. 9: victims as
// columns; (system, aggressor, split) as rows.
type Fig9Result struct {
	Columns []string
	Rows    []Fig9RowResult
}

// Fig9RowResult is one heatmap row.
type Fig9RowResult struct {
	System    string
	Aggressor string
	AggrFrac  float64
	Cells     []CellResult
}

// Fig9Splits are the paper's victim/aggressor splits: ~90/10, ~50/50,
// ~10/90 (chosen so victims run at even, power-of-two and odd node
// counts).
var Fig9Splits = [...]float64{0.9, 0.5, 0.1}

// Fig9Heatmap runs the Fig. 9 grid on both systems with linear allocation.
// The paper runs 512-node experiments on 698- and 1024-node machines; the
// same headroom ratio is kept here so a linear split cannot align the two
// jobs onto disjoint Dragonfly groups (which would eliminate the
// interference the experiment studies).
func Fig9Heatmap(opt Options, set VictimSet) Fig9Result {
	opt = opt.withDefaults(fig9Defaults)
	return congestionGrid(opt, Victims(set), placement.Linear, gridSystems(opt.Nodes), Fig9Splits[:])
}

// gridSystems builds the Aries and Slingshot machines with the paper's
// machine-size/experiment-size headroom (698/512 and 1024/512).
func gridSystems(nodes int) []System {
	return []System{Crystal(nodes * 3 / 2), Shandy(nodes * 2)}
}

// congestionGrid builds every cell of a heatmap up front — assigning each
// its seed in row-major order, exactly as the sequential runner did — and
// fans the independent cells out over RunGrid's worker pool.
func congestionGrid(opt Options, victims []Victim, alloc placement.Policy, systems []System, splits []float64) Fig9Result {
	res := Fig9Result{}
	for _, v := range victims {
		res.Columns = append(res.Columns, v.Label)
	}
	var points []GridPoint
	seed := opt.Seed
	for _, sys := range systems {
		sys.Domains = opt.Domains
		sys.Fidelity = opt.fidelity()
		for _, kind := range []AggressorKind{AlltoallAggressor, IncastAggressor} {
			for _, vf := range splits {
				res.Rows = append(res.Rows, Fig9RowResult{
					System:    sys.Name,
					Aggressor: kind.String(),
					AggrFrac:  aggrFrac(vf),
				})
				for _, v := range victims {
					seed++
					points = append(points, GridPoint{
						Spec: CellSpec{
							Sys:        sys,
							TotalNodes: opt.Nodes,
							VictimFrac: vf,
							Aggressor:  kind,
							Alloc:      alloc,
							AggrPPN:    opt.PPN,
							Seed:       seed,
							MinIters:   opt.MinIters,
							MaxIters:   opt.MaxIters,
						},
						Victim: v,
					})
				}
			}
		}
	}
	cells := RunGrid(points, opt.gridJobs())
	for i := range res.Rows {
		res.Rows[i].Cells = cells[i*len(victims) : (i+1)*len(victims)]
	}
	return res
}

// Max returns the largest impact per system, the paper's headline numbers
// (worst case 93x on Aries vs 1.3x on Slingshot in Fig. 9).
func (r Fig9Result) Max() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			if !c.NA && c.Impact > out[row.System] {
				out[row.System] = c.Impact
			}
		}
	}
	return out
}

// Result converts the heatmap to the uniform structured form: one table
// with a column per victim.
func (r Fig9Result) Result() *results.Result {
	res := &results.Result{}
	cols := append([]string{"system", "aggressor", "aggr_frac"}, r.Columns...)
	t := res.AddTable("heatmap", cols...)
	for _, row := range r.Rows {
		cells := []results.Value{
			results.String(row.System), results.String(row.Aggressor),
			results.Float(row.AggrFrac, 2),
		}
		for _, c := range row.Cells {
			if c.NA {
				cells = append(cells, results.NA())
			} else {
				cells = append(cells, results.Float(c.Impact, 1))
			}
		}
		t.Row(cells...)
	}
	return res
}

// Fig10Variant is one panel of Fig. 10: the distribution of all heatmap
// elements for a given allocation policy.
type Fig10Variant struct {
	System string
	Alloc  placement.Policy
	// Impacts is the distribution of congestion impacts across all
	// victim/aggressor combinations.
	Impacts *stats.Sample
	Max     float64
}

// Fig10Result reproduces Fig. 10's three panels (A: allocations at 1 PPN,
// B: aggressor at high PPN, C: reduced node count).
type Fig10Result struct {
	Panel    string
	Variants []Fig10Variant
}

// Fig10Distributions runs one Fig. 10 panel. ppn is the aggressor PPN
// (panel B uses 24 in the paper); nodes the total node count (panel C
// shrinks it).
func Fig10Distributions(opt Options, set VictimSet, panel string) Fig10Result {
	opt = opt.withDefaults(fig10Defaults)
	res := Fig10Result{Panel: panel}
	for _, sys := range gridSystems(opt.Nodes) {
		for _, alloc := range []placement.Policy{placement.Linear, placement.Interleaved, placement.Random} {
			grid := congestionGrid(opt, Victims(set), alloc, []System{sys}, Fig9Splits[:])
			sample := stats.NewSample(64)
			max := 0.0
			for _, row := range grid.Rows {
				for _, c := range row.Cells {
					if c.NA || math.IsNaN(c.Impact) {
						continue
					}
					sample.Add(c.Impact)
					if c.Impact > max {
						max = c.Impact
					}
				}
			}
			res.Variants = append(res.Variants, Fig10Variant{
				System: sys.Name, Alloc: alloc, Impacts: sample, Max: max,
			})
		}
	}
	return res
}

// Result converts the panel to the uniform structured form.
func (r Fig10Result) Result() *results.Result {
	res := &results.Result{}
	t := res.AddTable(fmt.Sprintf("panel %s", r.Panel),
		"system", "allocation", "median_C", "p95_C", "max_C")
	for _, v := range r.Variants {
		t.Row(
			results.String(v.System), results.String(v.Alloc.String()),
			results.Float(v.Impacts.Median(), 2), results.Float(v.Impacts.Percentile(95), 2),
			results.Float(v.Max, 1),
		)
	}
	return res
}

// Fig11Result is the full-system heatmap of Fig. 11: applications under
// congestion using all nodes of Shandy, random allocation, with N.A.
// entries where MILC/HPCG cannot run (non-power-of-two victim node count).
type Fig11Result struct {
	Columns []string
	Rows    []Fig9RowResult
}

// Fig11Splits are the aggressor fractions of Fig. 11.
var Fig11Splits = [...]float64{0.75, 0.5, 0.25} // victim fractions

// Fig11FullScale runs the application victims at the largest configured
// scale with random allocation (the paper: that is the allocation
// generating the most congestion).
func Fig11FullScale(opt Options) Fig11Result {
	opt = opt.withDefaults(fig11Defaults)
	grid := congestionGrid(opt, Victims(VictimsApps), placement.Random,
		[]System{Shandy(opt.Nodes)}, Fig11Splits[:])
	return Fig11Result{Columns: grid.Columns, Rows: grid.Rows}
}

// Result converts the heatmap to the uniform structured form.
func (r Fig11Result) Result() *results.Result {
	return Fig9Result{Columns: r.Columns, Rows: r.Rows}.Result()
}
