// Command gpcnet mimics the GPCNet benchmark report (Chunduri et al.,
// SC'19 — reference [6] of the paper, whose congestion methodology the
// paper adopts): it measures a set of victim communication patterns in
// isolation and under congestion and prints the congestion impact for
// each, on a chosen system profile.
//
//	gpcnet                         # Slingshot system, defaults
//	gpcnet -system aries -nodes 64
//	gpcnet -aggressor all-to-all -split 0.5
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/placement"
	"repro/internal/workloads"
)

func main() {
	var (
		system = flag.String("system", "slingshot", "system profile: slingshot|aries")
		nodes  = flag.Int("nodes", 48, "total nodes (victim + aggressor)")
		split  = flag.Float64("split", 0.5, "victim node fraction")
		aggr   = flag.String("aggressor", "incast", "congestor: incast|all-to-all")
		alloc  = flag.String("alloc", "linear", "allocation: linear|interleaved|random")
		seed   = flag.Uint64("seed", 42, "seed")
		iters  = flag.Int("iters", 10, "max iterations per victim")
	)
	flag.Parse()
	if err := checkFlags(*nodes, *iters, *split); err != nil {
		fmt.Fprintln(os.Stderr, "gpcnet:", err)
		os.Exit(2)
	}

	var sys harness.System
	switch *system {
	case "slingshot":
		sys = harness.Shandy(*nodes * 2)
	case "aries":
		sys = harness.Crystal(*nodes * 3 / 2)
	default:
		fmt.Fprintf(os.Stderr, "gpcnet: unknown system %q\n", *system)
		os.Exit(2)
	}
	kind := harness.IncastAggressor
	if *aggr == "all-to-all" {
		kind = harness.AlltoallAggressor
	} else if *aggr != "incast" {
		fmt.Fprintf(os.Stderr, "gpcnet: unknown aggressor %q\n", *aggr)
		os.Exit(2)
	}
	policy, err := placement.ParsePolicy(*alloc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// GPCNet's victim set: random-ring-style point-to-point plus the
	// latency-critical collectives.
	victims := []harness.Victim{
		harness.BenchVictim(workloads.PingPongBench(8)),
		harness.BenchVictim(workloads.PingPongBench(128 * 1024)),
		harness.BenchVictim(workloads.AllreduceBench(8)),
		harness.BenchVictim(workloads.AlltoallBench(8)),
		harness.BenchVictim(workloads.BarrierBench()),
	}

	fmt.Printf("GPCNet-style report — %s, %d nodes, %s congestor, %s allocation, %.0f%% victim\n\n",
		sys.Name, *nodes, kind, policy, *split*100)
	fmt.Printf("%-20s %14s %14s %10s\n", "pattern", "isolated (us)", "congested (us)", "impact")
	fmt.Printf("%-20s %14s %14s %10s\n", "-------", "-------------", "--------------", "------")
	s := *seed
	for _, v := range victims {
		s++
		r := harness.RunCell(harness.CellSpec{
			Sys: sys, TotalNodes: *nodes, VictimFrac: *split,
			Aggressor: kind, Alloc: policy, AggrPPN: 1,
			Seed: s, MinIters: 4, MaxIters: *iters,
		}, v)
		fmt.Printf("%-20s %14.1f %14.1f %9.2fx\n", r.Victim, r.Isolated, r.Congested, r.Impact)
	}
}

// checkFlags rejects the -nodes, -iters and -split values gpcnet cannot
// run: a machine too small for two two-node jobs, fewer than one
// measurement per victim, or a victim fraction that leaves either job
// empty.
func checkFlags(nodes, iters int, split float64) error {
	if nodes < harness.MinCellNodes {
		return fmt.Errorf("-nodes must be at least %d, got %d", harness.MinCellNodes, nodes)
	}
	if iters < 1 {
		return fmt.Errorf("-iters must be at least 1, got %d", iters)
	}
	if !(split > 0 && split < 1) {
		return fmt.Errorf("-split must be strictly between 0 and 1, got %v", split)
	}
	return nil
}
