// Package harness regenerates every figure and table of the paper's
// evaluation on the simulated systems. Each experiment registers itself
// under a name ("fig2" ... "fig14"); Lookup/All drive them generically
// and every run returns a uniform *results.Result that the CLI encodes
// as text, JSON, or CSV.
//
// Experiments accept an Options scale so the full grids can run at paper
// scale from cmd/slingshot-sim while tests and benchmarks use reduced node
// counts (the shape of the results — who wins, by roughly what factor,
// where crossovers fall — is what the reproduction asserts). Grid
// experiments fan their independent points out across a worker pool
// (Options.Jobs); each point owns its seed and network, so worker count
// never changes the numbers.
package harness

import (
	"runtime"

	"repro/internal/fabric"
	"repro/internal/topology"
)

// Options scales an experiment.
type Options struct {
	// Nodes is the total node count (0 = the experiment's default).
	Nodes int
	// MinIters/MaxIters bound the per-point measurement loop.
	MinIters, MaxIters int
	// Seed makes the whole experiment reproducible.
	Seed uint64
	// PPN is the aggressor processes-per-node where applicable.
	PPN int
	// Jobs is the worker-pool width for independent grid points
	// (0 = GOMAXPROCS, 1 = serial). Results are identical for any value.
	Jobs int
	// Domains is the sharded parallel engine's worker budget per network
	// (fabric.NewSharded): 0 runs the classic single-threaded engine;
	// any value >= 1 runs the domain-sharded engine, whose results are
	// identical for every budget. Grid experiments divide Jobs by Domains
	// so the two levels of parallelism compose to roughly Jobs goroutines.
	Domains int
	// Victims selects the grid columns for fig9/fig10
	// (default VictimsQuick).
	Victims VictimSet
	// Panel selects the Fig. 10 panel: "A", "B", or "C" (default "A").
	Panel string
	// Topo restricts topo-compare and policy-compare to one backend
	// ("dragonfly"|"fattree"|"hyperx"; "" runs all three).
	Topo string
	// Routing restricts policy-compare to one routing policy
	// (routing.Names(); "" sweeps all four).
	Routing string
	// CC restricts policy-compare to one congestion-control backend
	// (congestion.Names(); "" sweeps slingshot, ecn and delay).
	CC string
	// Fidelity selects how every cell's network moves bytes:
	// "packet" (default, the golden level), "flow", or "hybrid"
	// (fabric.ParseFidelity). Threaded to each System RunGrid builds.
	Fidelity string
}

// fidelity parses Options.Fidelity, panicking on a spelling ParseFidelity
// rejects — the registered Run validates first, so a bad value here is
// programmer error.
func (o Options) fidelity() fabric.Fidelity {
	f, err := fabric.ParseFidelity(o.Fidelity)
	if err != nil {
		panic(err)
	}
	return f
}

// withDefaults fills zero fields from an experiment's default options,
// validates the iteration range, and applies the generic fallbacks.
func (o Options) withDefaults(d Options) Options {
	if o.Nodes == 0 {
		o.Nodes = d.Nodes
	}
	if o.MinIters == 0 {
		o.MinIters = d.MinIters
	}
	if o.MaxIters == 0 {
		o.MaxIters = d.MaxIters
	}
	// An inverted range would disable the convergence break and silently
	// run every point to MaxIters; clamp instead.
	if o.MinIters > o.MaxIters {
		o.MinIters = o.MaxIters
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.PPN == 0 {
		o.PPN = 1
	}
	if o.Jobs <= 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	if o.Panel == "" {
		o.Panel = "A"
	}
	return o
}

// gridJobs is the grid worker-pool width composed with the per-network
// domain budget: with Domains > 1 every cell already runs Domains
// goroutines, so the pool shrinks to keep the total near Jobs.
func (o Options) gridJobs() int {
	if o.Domains <= 1 {
		return o.Jobs
	}
	if j := o.Jobs / o.Domains; j > 1 {
		return j
	}
	return 1
}

// System couples a topology shape with a hardware profile. Dragonfly
// systems fill Topo (the figN experiments also read its shape fields);
// other backends set Builder, which takes precedence over it.
type System struct {
	Name    string
	Topo    topology.Config
	Builder topology.Builder
	Prof    fabric.Profile
	// Domains is the sharded-engine worker budget passed to
	// fabric.NewSharded (0 = classic engine); see Options.Domains.
	Domains int
	// Fidelity is applied to every network built for this system
	// (fabric.SetFidelity); the zero value is the packet engine.
	Fidelity fabric.Fidelity
}

// Shandy returns the 1024-node Slingshot system (scaled to n nodes when
// n > 0 and smaller than the full machine).
func Shandy(n int) System {
	cfg := topology.ShandyConfig()
	if n > 0 && n < 1024 {
		cfg = topology.ScaledConfig(n)
	}
	return System{Name: "Slingshot (Shandy)", Topo: cfg, Prof: fabric.SlingshotProfile()}
}

// Malbec returns the 484-node Slingshot system (scaled when n > 0).
func Malbec(n int) System {
	cfg := topology.MalbecConfig()
	if n > 0 && n < 484 {
		cfg = topology.ScaledConfig(n)
		cfg.GlobalPerPair *= 2 // Malbec is generously globally connected
	}
	return System{Name: "Slingshot (Malbec)", Prof: fabric.SlingshotProfile(), Topo: cfg}
}

// Crystal returns the 698-node Aries system (scaled when n > 0).
func Crystal(n int) System {
	cfg := topology.CrystalConfig()
	if n > 0 && n < 698 {
		// Keep Crystal's two-group, grid-group shape at reduced scale:
		// 4 grid rows, column count from the node budget.
		per := (n + 1) / 2
		cols := (per + 15) / 16 // 4 nodes/switch x 4 rows per column
		if cols < 2 {
			cols = 2
		}
		cfg = topology.Config{
			Groups:           2,
			SwitchesPerGroup: 4 * cols,
			NodesPerSwitch:   4,
			GlobalPerPair:    max(8, per/8),
			Shape:            topology.Grid2D,
			GridRows:         4,
		}
	}
	return System{Name: "Aries (Crystal)", Prof: fabric.AriesProfile(), Topo: cfg}
}

// build instantiates the network for a system: Builder, else the
// Dragonfly Topo (a zero Topo fails Validate: the empty system).
func (s System) build(seed uint64) *fabric.Network {
	b := s.Builder
	if b == nil {
		b = s.Topo
	}
	n := fabric.NewSharded(topology.MustBuild(b), s.Prof, seed, s.Domains)
	if s.Fidelity != fabric.FidelityPacket {
		n.SetFidelity(s.Fidelity)
	}
	return n
}

// nodeRange returns the first n node IDs.
func nodeRange(n int) []topology.NodeID {
	out := make([]topology.NodeID, n)
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}
