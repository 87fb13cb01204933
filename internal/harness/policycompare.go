package harness

import (
	"fmt"

	"repro/internal/congestion"
	"repro/internal/placement"
	"repro/internal/results"
	"repro/internal/routing"
)

func init() {
	Register(Experiment{
		Name:           "policy-compare",
		Desc:           "victim slowdown across routing policies x CC backends x topologies",
		DefaultOptions: Options{Nodes: 32, MinIters: 2, MaxIters: 4},
		MinNodes:       MinCellNodes,
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
		Run: policyCompare,
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
	rp, err := routing.ByName(routingName)
	if err != nil {
		return System{}, err
	}
	sys.Prof.Routing = rp
	cc, err := congestion.ByName(ccName)
	if err != nil {
		return System{}, err
	}
	sys.Prof.CC = cc
	return sys, nil
}

// policyCompare measures the same fixed victim mix under a multi-process
// incast aggressor at an even split with interleaved allocation — victims
// share switches with aggressors, the placement Fig. 10 shows generating
// congestion, so the §II-D endpoint-congestion contrast between CC
// backends is visible at reduced scale — for every (topology, routing
// policy, CC backend) combination, fanning the independent cells over
// RunGrid. It writes one heatmap with the three policy axes as key
// columns. Options.Topo/Routing/CC each restrict one axis of the sweep
// to a single backend.
func policyCompare(opt Options) (*results.Result, error) {
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
	var rows []heatRow
	for _, topoName := range topos {
		for _, routingName := range routings {
			for _, ccName := range ccs {
				sys, err := policySystem(topoName, routingName, ccName, opt.Nodes*2)
				if err != nil {
					return nil, err
				}
				rows = append(rows, heatRow{
					keys: []results.Value{
						results.String(topoName), results.String(routingName),
						results.String(ccName),
					},
					spec: CellSpec{
						Sys: sys, VictimFrac: 0.5,
						Aggressor: IncastAggressor, Alloc: placement.Interleaved,
					},
				})
			}
		}
	}
	return heatmap(opt, "policy grid", []string{"topology", "routing", "cc"}, rows, topoCompareVictims()), nil
}
