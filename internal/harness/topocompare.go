package harness

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/placement"
	"repro/internal/results"
	"repro/internal/topology"
	"repro/internal/workloads"
)

var topoCompareDefaults = Options{Nodes: 32, MinIters: 2, MaxIters: 4}

func init() {
	Register(Experiment{
		Name:           "topo-compare",
		Desc:           "same victim/aggressor mix across dragonfly, fat-tree and HyperX backends",
		DefaultOptions: topoCompareDefaults,
		Run: func(opt Options) (*results.Result, error) {
			r, err := TopoCompare(opt)
			if err != nil {
				return nil, err
			}
			return r.Result(), nil
		},
	})
}

// TopoNames lists the backends topo-compare sweeps, in row order.
var TopoNames = [...]string{"dragonfly", "fattree", "hyperx"}

// topoSystem builds the comparison system for one backend at the grid's
// machine scale: the Dragonfly is Shandy with the Slingshot profile, the
// fat-tree is the paper's 100 Gb/s RoCE comparison cluster
// (FatTree100GProfile), and the HyperX runs Slingshot hardware on a
// flattened-butterfly shape — isolating the topology's contribution.
func topoSystem(name string, machineNodes int) (System, error) {
	switch name {
	case "dragonfly":
		sys := Shandy(machineNodes)
		sys.Name = "dragonfly"
		return sys, nil
	case "fattree":
		prof := fabric.FatTree100GProfile()
		return System{Name: "fattree", Builder: topology.FatTreeFor(machineNodes), Prof: prof}, nil
	case "hyperx":
		return System{Name: "hyperx", Builder: topology.HyperXFor(machineNodes), Prof: fabric.SlingshotProfile()}, nil
	}
	return System{}, fmt.Errorf("harness: unknown topology %q (want dragonfly|fattree|hyperx)", name)
}

// topoCompareVictims is the fixed victim mix every backend measures: a
// latency-bound collective, a bandwidth-bound transpose, and a stencil
// exchange — the three communication regimes the paper's grids span.
func topoCompareVictims() []Victim {
	return []Victim{
		BenchVictim(workloads.AllreduceBench(8)),
		BenchVictim(workloads.AlltoallBench(128 * 1024)),
		BenchVictim(workloads.Halo3DBench(128)),
	}
}

// TopoCompareResult is the congestion-impact heatmap with one row block
// per topology backend.
type TopoCompareResult struct {
	Grid Fig9Result
}

// topoCompareMinNodes is the smallest machine a grid cell can split: a
// cell leaves the aggressor job two nodes, so fewer than three leave the
// victim job empty.
const topoCompareMinNodes = 3

// TopoCompare runs the same victim/aggressor congestion grid (both
// aggressors, the Fig. 9 splits, linear allocation) across the selected
// backends via RunGrid. opt.Topo restricts the sweep to one backend; the
// default sweeps all three with the same machine-size headroom as Fig. 9.
func TopoCompare(opt Options) (TopoCompareResult, error) {
	opt = opt.withDefaults(topoCompareDefaults)
	if opt.Nodes < topoCompareMinNodes {
		return TopoCompareResult{}, fmt.Errorf("harness: topo-compare needs at least %d nodes, got %d",
			topoCompareMinNodes, opt.Nodes)
	}
	names := TopoNames[:]
	if opt.Topo != "" {
		names = []string{opt.Topo}
	}
	systems := make([]System, 0, len(names))
	for _, name := range names {
		sys, err := topoSystem(name, opt.Nodes*2)
		if err != nil {
			return TopoCompareResult{}, err
		}
		systems = append(systems, sys)
	}
	grid := congestionGrid(opt, topoCompareVictims(), placement.Linear, systems, Fig9Splits[:])
	return TopoCompareResult{Grid: grid}, nil
}

// Result converts the heatmap to the uniform structured form (the Fig. 9
// table layout, with the topology backend in the system column).
func (r TopoCompareResult) Result() *results.Result {
	res := r.Grid.Result()
	if len(res.Tables) > 0 {
		res.Tables[0].Columns[0] = "topology"
	}
	return res
}
