package harness

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/results"
	"repro/internal/workloads"
)

// paperExperiments is every figure of the paper's evaluation in
// presentation order, followed by the repo's own cross-backend sweep.
var paperExperiments = []string{
	"fig2", "fig4", "fig5", "fig6", "fig8",
	"fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
	"policy-compare", "topo-compare",
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	var names []string
	for _, e := range all {
		names = append(names, e.Name)
	}
	if !reflect.DeepEqual(names, paperExperiments) {
		t.Errorf("All() = %v, want %v", names, paperExperiments)
	}
	for _, e := range all {
		if e.Desc == "" {
			t.Errorf("%s has no description", e.Name)
		}
		if e.DefaultOptions.Nodes == 0 {
			t.Errorf("%s has no default node count", e.Name)
		}
	}
	if Lookup("fig6") == nil {
		t.Error("Lookup(fig6) = nil")
	}
	if Lookup("nope") != nil {
		t.Error("Lookup(nope) should be nil")
	}
}

// tinyOptions returns per-experiment scales small enough that the whole
// registry round-trips in seconds.
func tinyOptions() map[string]Options {
	return map[string]Options{
		"fig2":           {Nodes: 16, MaxIters: 50, Seed: 7},
		"fig4":           {Nodes: 16, MaxIters: 3, Seed: 7},
		"fig5":           {Nodes: 16, MaxIters: 2, Seed: 7},
		"fig6":           {Nodes: 32, Seed: 7},
		"fig8":           {Nodes: 32, MaxIters: 5, Seed: 7},
		"fig9":           {Nodes: 24, MinIters: 1, MaxIters: 2, Victims: VictimsApps, Seed: 7},
		"fig10":          {Nodes: 16, MinIters: 1, MaxIters: 2, Victims: VictimsApps, Seed: 7},
		"fig11":          {Nodes: 24, MinIters: 1, MaxIters: 2, Seed: 7},
		"fig12":          {Nodes: 16, MinIters: 1, MaxIters: 2, Seed: 7},
		"fig13":          {Nodes: 16, Seed: 7},
		"fig14":          {Nodes: 16, Seed: 7},
		"topo-compare":   {Nodes: 16, MinIters: 1, MaxIters: 2, Seed: 7},
		"policy-compare": {Nodes: 16, MinIters: 1, MaxIters: 1, Seed: 7},
	}
}

// TestRegistryRoundTrip runs every registered experiment at tiny scale
// and asserts it returns a well-formed structured result that all three
// encoders accept.
func TestRegistryRoundTrip(t *testing.T) {
	tiny := tinyOptions()
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			opt, ok := tiny[e.Name]
			if !ok {
				t.Fatalf("no tiny options for %s — add it to tinyOptions", e.Name)
			}
			res, err := e.Run(opt)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Meta.Experiment != e.Name {
				t.Errorf("meta experiment = %q, want %q", res.Meta.Experiment, e.Name)
			}
			if res.Meta.Seed != 7 {
				t.Errorf("meta seed = %d, want 7", res.Meta.Seed)
			}
			if res.Meta.Nodes == 0 {
				t.Error("meta nodes not stamped")
			}
			if res.Meta.Wall <= 0 {
				t.Error("meta wall time not stamped")
			}
			if err := res.Validate(); err != nil {
				t.Errorf("Validate: %v", err)
			}
			for _, format := range results.Formats() {
				enc, err := results.NewEncoder(format)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := enc.Encode(&buf, res); err != nil {
					t.Errorf("%s encode: %v", format, err)
				}
				if buf.Len() == 0 {
					t.Errorf("%s encode produced no output", format)
				}
			}
		})
	}
}

// TestRunGridJobsDeterminism asserts the acceptance criterion that a
// worker pool of any width produces byte-identical results: the same
// grid at -jobs 1 and -jobs 8 must match exactly, both as raw cells and
// as encoded JSON.
func TestRunGridJobsDeterminism(t *testing.T) {
	points := gridPointsFixture()
	serial := RunGrid(points, 1)
	parallel := RunGrid(points, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("cell counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !cellsEqual(serial[i], parallel[i]) {
			t.Fatalf("cell %d differs between jobs=1 and jobs=8:\n%+v\nvs\n%+v",
				i, serial[i], parallel[i])
		}
	}

	run := func(jobs int) []byte {
		res, err := Lookup("fig9").Run(Options{
			Nodes: 24, MinIters: 1, MaxIters: 2,
			Victims: VictimsApps, Seed: 7, Jobs: jobs,
		})
		if err != nil {
			t.Fatal(err)
		}
		res.Meta.Wall = 0 // host timing is the only nondeterministic field
		enc, _ := results.NewEncoder("json")
		var buf bytes.Buffer
		if err := enc.Encode(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(1), run(8); !bytes.Equal(a, b) {
		t.Error("fig9 JSON differs between -jobs 1 and -jobs 8")
	}
}

// cellsEqual is exact equality with NaN impacts (N.A. cells) treated as
// equal — reflect.DeepEqual would reject NaN == NaN.
func cellsEqual(a, b CellResult) bool {
	impactsMatch := a.Impact == b.Impact || (math.IsNaN(a.Impact) && math.IsNaN(b.Impact))
	return a.Victim == b.Victim && a.Aggressor == b.Aggressor &&
		a.Frac == b.Frac && a.NA == b.NA && impactsMatch &&
		a.Isolated == b.Isolated && a.Congested == b.Congested
}

func gridPointsFixture() []GridPoint {
	var points []GridPoint
	seed := uint64(20)
	for _, vf := range []float64{0.9, 0.5} {
		for _, v := range []Victim{
			BenchVictim(workloads.BarrierBench()),
			BenchVictim(workloads.AllreduceBench(8)),
			AppVictim(workloads.MILC()),
		} {
			seed++
			points = append(points, GridPoint{
				Spec: CellSpec{
					Sys: Shandy(32), TotalNodes: 24, VictimFrac: vf,
					Aggressor: IncastAggressor, AggrPPN: 1, Seed: seed,
					MinIters: 2, MaxIters: 3,
				},
				Victim: v,
			})
		}
	}
	return points
}

func TestRunRejectsUnknownFidelity(t *testing.T) {
	// Options reach Run from library callers as well as from the CLI's
	// checked flag: a bad fidelity spelling must come back as an error.
	res, err := Lookup("fig2").Run(Options{Fidelity: "fluid"})
	if err == nil || !strings.Contains(err.Error(), `"fluid"`) {
		t.Fatalf("Run(Fidelity: fluid) = %v, %v; want an unknown-fidelity error", res, err)
	}
}

// TestRunRejectsBadOptions drives registered experiments with inputs
// they cannot run and expects an error rather than a panic, a hang or a
// report of nothing: negative scale and parallelism counts, machines too
// small to give each of the experiment's jobs two nodes, an unknown panel
// or victim set, and fluid fidelities on the traffic-class figures, which
// measure switch queues only packets pass through.
func TestRunRejectsBadOptions(t *testing.T) {
	cases := []struct {
		exp, name string
		opt       Options
	}{
		{"fig2", "iters=-4", Options{MaxIters: -4}},
		{"fig2", "min-iters=-1", Options{MinIters: -1}},
		{"fig2", "nodes=-8", Options{Nodes: -8}},
		{"fig2", "ppn=-2", Options{PPN: -2}},
		{"fig2", "jobs=-1", Options{Jobs: -1}},
		{"fig2", "domains=-1", Options{Domains: -1}},
		{"topo-compare", "nodes=1", Options{Nodes: 1}},
		{"topo-compare", "nodes=2", Options{Nodes: 2}},
		{"topo-compare", "nodes=3", Options{Nodes: 3}},
		{"fig8", "nodes=1", Options{Nodes: 1}},
		{"fig8", "nodes=2", Options{Nodes: 2}},
		{"fig8", "nodes=3", Options{Nodes: 3}},
		{"fig9", "nodes=1", Options{Nodes: 1}},
		{"fig9", "nodes=2", Options{Nodes: 2}},
		{"fig9", "nodes=3", Options{Nodes: 3}},
		{"fig10", "nodes=1", Options{Nodes: 1}},
		{"fig10", "nodes=2", Options{Nodes: 2}},
		{"fig10", "nodes=3", Options{Nodes: 3}},
		{"fig11", "nodes=1", Options{Nodes: 1}},
		{"fig11", "nodes=2", Options{Nodes: 2}},
		{"fig11", "nodes=3", Options{Nodes: 3}},
		{"policy-compare", "nodes=1", Options{Nodes: 1}},
		{"policy-compare", "nodes=2", Options{Nodes: 2}},
		{"policy-compare", "nodes=3", Options{Nodes: 3}},
		{"fig12", "nodes=1", Options{Nodes: 1}},
		{"fig12", "nodes=2", Options{Nodes: 2}},
		{"fig12", "nodes=3", Options{Nodes: 3}},
		{"fig13", "nodes=2", Options{Nodes: 2}},
		{"fig13", "nodes=3", Options{Nodes: 3}},
		{"fig14", "nodes=2", Options{Nodes: 2}},
		{"fig14", "nodes=3", Options{Nodes: 3}},
		{"fig10", "panel=D", Options{Nodes: 16, MinIters: 1, MaxIters: 1, Victims: VictimsApps, Panel: "D"}},
		{"fig9", "victims=7", Options{Nodes: 16, MinIters: 1, MaxIters: 1, Victims: VictimSet(7)}},
		{"fig13", "fidelity=flow", Options{Nodes: 16, Fidelity: "flow"}},
		{"fig13", "fidelity=hybrid", Options{Nodes: 16, Fidelity: "hybrid"}},
		{"fig14", "fidelity=flow", Options{Nodes: 16, Fidelity: "flow"}},
		{"fig14", "fidelity=hybrid", Options{Nodes: 16, Fidelity: "hybrid"}},
	}
	for _, c := range cases {
		t.Run(c.exp+"/"+c.name, func(t *testing.T) {
			if res, err := Lookup(c.exp).Run(c.opt); err == nil {
				t.Fatalf("Run(%+v) = %v, nil; want an error", c.opt, res)
			}
		})
	}
}

// TestRunAtMinNodes runs every registered experiment on the smallest
// machine it accepts and checks that it still measures something: every
// table column that is not all labels has a finite nonzero cell, and no
// series is all zero. A node floor that leaves one of an experiment's
// jobs a single node shows up here as an all-N.A. or all-zero column.
func TestRunAtMinNodes(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			res, err := e.Run(Options{Nodes: max(e.MinNodes, 1), MinIters: 1, MaxIters: 1, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for _, tab := range res.Tables {
				for j, name := range tab.Columns {
					labels, measured := true, false
					for _, row := range tab.Rows {
						if row[j].Kind != results.KindString {
							labels = false
						}
						if v, ok := row[j].Float64(); ok && v != 0 {
							measured = true
						}
					}
					if !labels && !measured {
						t.Errorf("table %q column %q has no finite nonzero cell", tab.Name, name)
					}
				}
			}
			for _, s := range res.Series {
				measured := false
				for _, p := range s.Points {
					measured = measured || p.Y != 0
				}
				if !measured {
					t.Errorf("series %q is all zero", s.Name)
				}
			}
		})
	}
}

func TestWithDefaultsClampsMinIters(t *testing.T) {
	// -iters below an experiment's default MinIters must clamp the
	// minimum rather than disabling the convergence break.
	fig2Defaults := Lookup("fig2").DefaultOptions
	o := Options{MaxIters: 5}.withDefaults(fig2Defaults)
	if o.MinIters != 5 {
		t.Errorf("MinIters = %d, want clamped to 5", o.MinIters)
	}
	if o.MaxIters != 5 {
		t.Errorf("MaxIters = %d, want 5", o.MaxIters)
	}
	o = Options{MinIters: 3, MaxIters: 10}.withDefaults(fig2Defaults)
	if o.MinIters != 3 || o.MaxIters != 10 {
		t.Errorf("explicit range mangled: %+v", o)
	}
	if o.Jobs <= 0 {
		t.Errorf("Jobs = %d, want defaulted positive", o.Jobs)
	}
	if o.Panel != "A" {
		t.Errorf("Panel = %q, want A", o.Panel)
	}
}

func TestFig10PanelCKeepsExplicitNodes(t *testing.T) {
	// Panel C shrinks the machine only when -nodes was not given: an
	// explicit node count must win over the panel default.
	e := Lookup("fig10")
	opt := e.Prepare(Options{Panel: "C"})
	if opt.Nodes != 24 {
		t.Errorf("panel C default nodes = %d, want 24", opt.Nodes)
	}
	opt = e.Prepare(Options{Panel: "C", Nodes: 48})
	if opt.Nodes != 48 {
		t.Errorf("panel C with explicit -nodes 48 coerced to %d", opt.Nodes)
	}
	if opt := e.Prepare(Options{Panel: "B", PPN: 1}); opt.PPN != 4 {
		t.Errorf("panel B default PPN = %d, want 4", opt.PPN)
	}
	if opt := e.Prepare(Options{Panel: "B", PPN: 8}); opt.PPN != 8 {
		t.Errorf("panel B explicit PPN coerced to %d", opt.PPN)
	}
}
