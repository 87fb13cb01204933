package harness

import (
	"fmt"

	"repro/internal/congestion"
	"repro/internal/placement"
	"repro/internal/results"
	"repro/internal/routing"
)

var policyCompareDefaults = Options{Nodes: 32, MinIters: 2, MaxIters: 4}

func init() {
	Register(Experiment{
		Name:           "policy-compare",
		Desc:           "victim slowdown across routing policies x CC backends x topologies",
		DefaultOptions: policyCompareDefaults,
		// The CC contrast needs real pressure on the incast destination:
		// default to a multi-process aggressor, in the spirit of Fig. 10's
		// panel B. Prepare runs before defaults merge, so only an unset
		// PPN is filled — an explicit -ppn (including 1) wins.
		Prepare: func(opt Options) Options {
			if opt.PPN == 0 {
				opt.PPN = 4
			}
			return opt
		},
		Run: func(opt Options) (*results.Result, error) {
			r, err := PolicyCompare(opt)
			if err != nil {
				return nil, err
			}
			return r.Result(), nil
		},
	})
}

// RoutingNames lists the routing policies policy-compare sweeps, in row
// order (the registry's four backends).
var RoutingNames = [...]string{"minimal", "adaptive", "ecmp", "valiant"}

// PolicyCCNames lists the CC backends policy-compare sweeps by default, in
// row order: the paper's §II-D comparison (Slingshot hardware CC vs the
// fragile ECN-style loop) plus the delay-based controller. The Aries
// no-CC baseline is reachable with Options.CC = "none" — it is excluded
// from the default sweep because uncontrolled incast inflates runtimes.
var PolicyCCNames = [...]string{"slingshot", "ecn", "delay"}

// policySystem is topoSystem with the routing policy and CC backend
// overridden: the same machine, link model and thresholds, only the two
// policy layers change.
func policySystem(topoName, routingName, ccName string, machineNodes int) (System, error) {
	sys, err := topoSystem(topoName, machineNodes)
	if err != nil {
		return System{}, err
	}
	sys.Name = fmt.Sprintf("%s/%s/%s", topoName, routingName, ccName)
	rb, err := routing.ByName(routingName)
	if err != nil {
		return System{}, err
	}
	sys.Prof.Routing = rb
	cb, err := congestion.ByName(ccName)
	if err != nil {
		return System{}, err
	}
	sys.Prof.CCBuilder = cb
	return sys, nil
}

// PolicyRowResult is one row of the policy grid: a (topology, routing,
// CC) combination measured against every victim.
type PolicyRowResult struct {
	Topo    string
	Routing string
	CC      string
	Cells   []CellResult
}

// PolicyCompareResult is the victim-slowdown grid across the two policy
// layers and the topology backends.
type PolicyCompareResult struct {
	Columns []string
	Rows    []PolicyRowResult
}

// PolicyCompare measures the same fixed victim mix under a multi-process
// incast aggressor at an even split with interleaved allocation — victims
// share switches with aggressors, the placement Fig. 10 shows generating
// congestion, so the §II-D endpoint-congestion contrast between CC
// backends is visible at reduced scale — for every (topology, routing
// policy, CC backend) combination, fanning the independent cells over
// RunGrid. Options.Topo/Routing/CC each restrict one axis of the sweep to
// a single backend.
func PolicyCompare(opt Options) (PolicyCompareResult, error) {
	opt = opt.withDefaults(policyCompareDefaults)
	topos, routings, ccs := TopoNames[:], RoutingNames[:], PolicyCCNames[:]
	if opt.Topo != "" {
		topos = []string{opt.Topo}
	}
	if opt.Routing != "" {
		routings = []string{opt.Routing}
	}
	if opt.CC != "" {
		ccs = []string{opt.CC}
	}
	victims := topoCompareVictims()
	res := PolicyCompareResult{}
	for _, v := range victims {
		res.Columns = append(res.Columns, v.Label)
	}
	var points []GridPoint
	seed := opt.Seed
	for _, topoName := range topos {
		for _, routingName := range routings {
			for _, ccName := range ccs {
				sys, err := policySystem(topoName, routingName, ccName, opt.Nodes*2)
				if err != nil {
					return PolicyCompareResult{}, err
				}
				sys.Domains = opt.Domains
				sys.Fidelity = opt.fidelity()
				res.Rows = append(res.Rows, PolicyRowResult{
					Topo: topoName, Routing: routingName, CC: ccName,
				})
				for _, v := range victims {
					seed++
					points = append(points, GridPoint{
						Spec: CellSpec{
							Sys:        sys,
							TotalNodes: opt.Nodes,
							VictimFrac: 0.5,
							Aggressor:  IncastAggressor,
							Alloc:      placement.Interleaved,
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
	return res, nil
}

// MaxByCC returns the largest victim impact observed per CC backend
// across the whole grid — the aggregate the §II-D ordering claim
// (slingshot < ecn) is checked against.
func (r PolicyCompareResult) MaxByCC() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			if !c.NA && c.Impact > out[row.CC] {
				out[row.CC] = c.Impact
			}
		}
	}
	return out
}

// Result converts the grid to the uniform structured form: one table with
// the three policy axes as key columns and a column per victim.
func (r PolicyCompareResult) Result() *results.Result {
	res := &results.Result{}
	cols := append([]string{"topology", "routing", "cc"}, r.Columns...)
	t := res.AddTable("policy grid", cols...)
	for _, row := range r.Rows {
		cells := []results.Value{
			results.String(row.Topo), results.String(row.Routing),
			results.String(row.CC),
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
