package harness

import (
	"testing"

	"repro/internal/congestion"
	"repro/internal/workloads"
)

// TestPolicyCompareCCOrdering pins the §II-D claim the experiment exists
// to show: under the incast aggressor, victims behind the fragile
// ECN-style loop slow down at least as much as victims protected by
// Slingshot's per-pair hardware back-pressure — at the same scale the
// golden run uses.
func TestPolicyCompareCCOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full policy grid takes ~1s")
	}
	grid := table(t, runExp(t, "policy-compare", Options{Nodes: 24, MinIters: 1, MaxIters: 2, Seed: 7, PPN: 4}), "policy grid")
	if want := len(TopoNames) * len(RoutingNames) * len(PolicyCCNames); len(grid.Rows) != want {
		t.Fatalf("grid has %d rows, want %d", len(grid.Rows), want)
	}
	if want := heatmapKeys + len(topoCompareVictims()); len(grid.Columns) != want {
		t.Fatalf("grid has %d columns, want %d", len(grid.Columns), want)
	}
	for _, row := range grid.Rows {
		for j, v := range row[heatmapKeys:] {
			if c, ok := v.Float64(); ok && c < 1 {
				t.Errorf("%s/%s/%s %s: impact %v below 1 (CongestionImpact clamps)",
					row[0].Str, row[1].Str, row[2].Str, grid.Columns[heatmapKeys+j], c)
			}
		}
	}
	max := maxImpactBy(t, grid, "cc")
	for _, cc := range PolicyCCNames {
		if max[cc] == 0 {
			t.Fatalf("no measurable cells for CC %q", cc)
		}
	}
	if max["ecn"] < max["slingshot"] {
		t.Errorf("§II-D ordering violated: ECN max impact %.3f < Slingshot max %.3f",
			max["ecn"], max["slingshot"])
	}
}

// TestPolicyComparePPNDefault: an unset PPN gets the pressure default
// (4), while any explicit PPN — including 1 — wins.
func TestPolicyComparePPNDefault(t *testing.T) {
	e := Lookup("policy-compare")
	if opt := e.Prepare(Options{}); opt.PPN != 4 {
		t.Errorf("default PPN = %d, want 4", opt.PPN)
	}
	if opt := e.Prepare(Options{PPN: 1}); opt.PPN != 1 {
		t.Errorf("explicit PPN 1 coerced to %d", opt.PPN)
	}
	if opt := e.Prepare(Options{PPN: 8}); opt.PPN != 8 {
		t.Errorf("explicit PPN 8 coerced to %d", opt.PPN)
	}
}

// TestPolicyCompareRestrictsAxes: Options.Topo/Routing/CC each narrow
// their axis to one backend, and unknown names fail loudly.
func TestPolicyCompareRestrictsAxes(t *testing.T) {
	grid := table(t, runExp(t, "policy-compare", Options{
		Nodes: 16, MinIters: 1, MaxIters: 1, Seed: 7, PPN: 1,
		Topo: "fattree", Routing: "ecmp", CC: "delay",
	}), "policy grid")
	if len(grid.Rows) != 1 {
		t.Fatalf("restricted sweep has %d rows, want 1", len(grid.Rows))
	}
	row := grid.Rows[0]
	topo, rt, cc := label(t, grid, row, "topology"), label(t, grid, row, "routing"), label(t, grid, row, "cc")
	if topo != "fattree" || rt != "ecmp" || cc != "delay" {
		t.Errorf("restricted row = %s/%s/%s", topo, rt, cc)
	}
	pc := Lookup("policy-compare")
	// The Aries no-CC baseline stays reachable explicitly.
	if _, err := pc.Run(Options{
		Nodes: 16, MinIters: 1, MaxIters: 1, Seed: 7, PPN: 1,
		Topo: "dragonfly", Routing: "minimal", CC: "none",
	}); err != nil {
		t.Errorf("CC=none: %v", err)
	}
	if _, err := pc.Run(Options{Nodes: 16, PPN: 1, Routing: "teleport"}); err == nil {
		t.Error("unknown routing policy did not error")
	}
	if _, err := pc.Run(Options{Nodes: 16, PPN: 1, CC: "tcp-reno"}); err == nil {
		t.Error("unknown CC backend did not error")
	}
	if _, err := pc.Run(Options{Nodes: 16, PPN: 1, Topo: "torus"}); err == nil {
		t.Error("unknown topology did not error")
	}
}

// TestDelayCCProtectsVictims: the delay-based controller is a real
// congestion control — on the congestion-prone Aries-style machine, a
// victim sharing the fabric with an incast sees far less slowdown than
// with no endpoint CC at all (the ablation that motivates shipping a
// fourth backend).
func TestDelayCCProtectsVictims(t *testing.T) {
	if testing.Short() {
		t.Skip("two congestion cells take ~1s")
	}
	impact := func(cc string) float64 {
		sys := Crystal(72)
		k, err := congestion.ByName(cc)
		if err != nil {
			t.Fatal(err)
		}
		sys.Prof.CC = k
		r := RunCell(CellSpec{
			Sys: sys, TotalNodes: 48, VictimFrac: 0.5,
			Aggressor: IncastAggressor, AggrPPN: 1,
			Seed: 7, MinIters: 3, MaxIters: 6,
		}, BenchVictim(workloads.AllreduceBench(8)))
		if r.NA {
			t.Fatalf("%s cell unexpectedly N.A.", cc)
		}
		return r.Impact
	}
	delay, none := impact("delay"), impact("none")
	if delay < 1 {
		t.Errorf("delay impact %v below 1", delay)
	}
	if delay*2 > none {
		t.Errorf("delay-based CC barely protects: impact %.2f vs %.2f without CC",
			delay, none)
	}
}
