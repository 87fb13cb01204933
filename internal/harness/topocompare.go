package harness

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/placement"
	"repro/internal/results"
	"repro/internal/topology"
	"repro/internal/workloads"
)

func init() {
	Register(Experiment{
		Name:           "topo-compare",
		Desc:           "same victim/aggressor mix across dragonfly, fat-tree and HyperX backends",
		DefaultOptions: Options{Nodes: 32, MinIters: 2, MaxIters: 4},
		MinNodes:       MinCellNodes,
		Run:            topoCompare,
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

// topoCompare runs the same victim/aggressor congestion grid (both
// aggressors, the Fig. 9 splits, linear allocation) across the selected
// backends via RunGrid, and writes the Fig. 9 heatmap layout with the
// topology backend in the first key column. opt.Topo restricts the sweep
// to one backend; the default sweeps all three with the same
// machine-size headroom as Fig. 9.
func topoCompare(opt Options) (*results.Result, error) {
	names := TopoNames[:]
	if opt.Topo != "" {
		names = []string{opt.Topo}
	}
	systems := make([]System, 0, len(names))
	for _, name := range names {
		sys, err := topoSystem(name, opt.Nodes*2)
		if err != nil {
			return nil, err
		}
		systems = append(systems, sys)
	}
	rows := congestionRows(systems, placement.Linear, Fig9Splits[:])
	return heatmap(opt, "heatmap", []string{"topology", "aggressor", "aggr_frac"}, rows, topoCompareVictims()), nil
}
