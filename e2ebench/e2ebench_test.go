package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"repro/internal/results"
)

func TestModuleOf(t *testing.T) {
	cases := []struct{ fn, want string }{
		{"repro/internal/sim.(*Engine).RunWhile", "sim"},
		{"repro/internal/sim/par.(*Coordinator).step", "par"},
		{"repro/internal/sim/par.(*Coordinator).withPool.func1", "par"},
		{"repro/internal/fabric.(*Switch).forward", "fabric"},
		{"repro/internal/fabric.(*Network).Send.func1", "fabric"},
		{"repro/internal/topology.Config.Build", "topology"},
		{"repro/internal/harness.RunGrid.func1", "harness"},
		{"repro/internal/harness.init.0.func1", "harness"},
		{"repro/internal/qos.(*PortScheduler).Dequeue", "qos"},
		{"repro/internal/flow.(*Engine).solve", "flow"},
		{"repro/internal/stats.(*Sample).Add", "stats"},
		{"repro/internal/routing.choose[...]", "routing"},
		{"runtime.mallocgc", "runtime"},
		{"runtime.gcBgMarkWorker", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime"},
		{"runtime/internal/atomic.(*Uint32).Load", "runtime"},
		{"runtime/pprof.(*profileBuilder).addCPUData", "other"},
		{"sort.Slice", "other"},
		{"slices.SortFunc[go.shape.[]*repro/internal/fabric.Packet,go.shape.*uint8]", "other"},
		{"repro/internal/lint.run", "other"},
		{"repro/internal/bench.PacketHotPath", "other"},
		{"main.main", "other"},
		{"repro/e2ebench.(*rep).timed", "other"},
		{"", "other"},
	}
	for _, c := range cases {
		if got := moduleOf(c.fn); got != c.want {
			t.Errorf("moduleOf(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}

// TestBucketProfile decodes a real CPU profile of this process and
// checks that every sample landed in a known module bucket.
func TestBucketProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	sink = x
	cpu, samples, err := bucketProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no samples collected")
	}
	var total time.Duration
	for mod, d := range cpu {
		if !slices.Contains(modules, mod) {
			t.Errorf("bucket %q is not a module", mod)
		}
		total += d
	}
	if total <= 0 {
		t.Errorf("profile of %d samples holds no CPU time", samples)
	}
	if cpu["other"] == 0 {
		t.Errorf("the spinning test function (module other) got no samples: %v", cpu)
	}
}

var sink int

// validName is the metric-name alphabet the result consumers accept.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !validName.MatchString(m.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64 characters", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
	for _, bad := range []string{"", "a b", "x/y", "_lead", "é"} {
		if validName.MatchString(bad) {
			t.Errorf("validName accepts %q", bad)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// grid builds a policy-grid result with two rows of two victims.
func grid(cells ...results.Value) *results.Result {
	r := &results.Result{}
	t := r.AddTable(gridTable, "topology", "routing", "cc", "allreduce/8B", "MILC")
	t.Row(results.String("dragonfly"), results.String("minimal"), results.String("slingshot"), cells[0], cells[1])
	t.Row(results.String("hyperx"), results.String("valiant"), results.String("delay"), cells[2], cells[3])
	return r
}

func TestCheckGridGolden(t *testing.T) {
	want := grid(results.Int(1), results.Float(1.25, -1), results.Float(1.5, -1), results.NA())
	same := grid(results.Float(1, 1), results.Float(1.25, 1), results.Float(1.5, 1), results.NA())
	c, err := checkGrid(same, want, nil)
	if err != nil || c.cells != 4 || c.failed != 0 || c.na != 1 {
		t.Fatalf("identical grid: %+v, %v; want 4 cells, 0 failed, 1 N.A.", c, err)
	}
	for i := 0; i < 4; i++ {
		cells := []results.Value{results.Float(1, 1), results.Float(1.25, 1), results.Float(1.5, 1), results.NA()}
		if i == 3 {
			cells[i] = results.Float(2, 1)
		} else {
			cells[i] = results.Float(cells[i].Num+1e-12, 1)
		}
		c, err := checkGrid(grid(cells...), want, nil)
		if err != nil || c.failed != 1 {
			t.Errorf("cell %d perturbed: %+v, %v; want exactly 1 failure", i, c, err)
		}
	}
	renamed := grid(results.Float(1, 1), results.Float(1.25, 1), results.Float(1.5, 1), results.NA())
	renamed.Tables[0].Rows[1][1] = results.String("adaptive")
	if c, _ := checkGrid(renamed, want, nil); c.failed != 2 {
		t.Errorf("row key changed: %d failures, want one per cell of the row", c.failed)
	}
	short := &results.Result{}
	short.AddTable(gridTable, "topology", "routing", "cc", "allreduce/8B")
	if _, err := checkGrid(short, want, nil); err == nil {
		t.Error("grid of another shape accepted")
	}
}

func TestCheckGridSanity(t *testing.T) {
	pow2 := map[string]bool{"MILC": true}
	ok := grid(results.Float(1.1, 1), results.NA(), results.Float(1, 1), results.NA())
	if c, err := checkGrid(ok, nil, pow2); err != nil || c.failed != 0 || c.na != 2 {
		t.Errorf("N.A. for a power-of-two-only victim: %+v, %v; want 0 failed, 2 N.A.", c, err)
	}
	for _, bad := range []*results.Result{
		grid(results.NA(), results.NA(), results.Float(1, 1), results.NA()),
		grid(results.Float(1, 1), results.Float(math.NaN(), 1), results.Float(1, 1), results.NA()),
		grid(results.Float(1, 1), results.NA(), results.Float(math.Inf(1), 1), results.NA()),
	} {
		if c, _ := checkGrid(bad, nil, pow2); c.failed != 1 {
			t.Errorf("%v: %d failures, want 1", bad.Tables[0].Rows, c.failed)
		}
	}
}

// TestCheckGridGoldenFile runs the comparator on the real golden file:
// the file matches itself in all 108 cells, and one perturbed cell is
// exactly one failure.
func TestCheckGridGoldenFile(t *testing.T) {
	load := func() *results.Result {
		f, err := os.Open(filepath.Join("..", filepath.FromSlash(goldenPath)))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		r, err := results.DecodeJSON(f)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want, got := load(), load()
	c, err := checkGrid(got, want, nil)
	if err != nil || c.cells != 108 || c.failed != 0 {
		t.Fatalf("golden vs itself: %+v, %v; want 108 cells, 0 failed", c, err)
	}
	cell := &got.Tables[0].Rows[17][4]
	v, _ := cell.Float64()
	*cell = results.Float(v*(1+1e-9), 1)
	if c, _ := checkGrid(got, want, nil); c.failed != 1 {
		t.Errorf("one perturbed cell: %d failures, want 1", c.failed)
	}
}

func TestPairGenNeverLoopback(t *testing.T) {
	shapes := []struct{ groups, perGroup int }{{2, 2}, {3, 2}, {16, 256}, {511, 512}}
	for _, s := range shapes {
		nodes := s.groups * s.perGroup
		for seed := uint64(0); seed < 50; seed++ {
			g := newPairGen(seed, s.groups, s.perGroup)
			for i := 0; i < 200; i++ {
				check := func(kind string, src, dst int, sameGroup bool) {
					t.Helper()
					if src == dst || src < 0 || dst < 0 || src >= nodes || dst >= nodes {
						t.Fatalf("%v seed %d: %s pair %d -> %d", s, seed, kind, src, dst)
					}
					if (src/s.perGroup == dst/s.perGroup) != sameGroup {
						t.Fatalf("%v seed %d: %s pair %d -> %d in the wrong groups", s, seed, kind, src, dst)
					}
				}
				src, dst := g.crossGroup()
				check("cross-group", int(src), int(dst), false)
				src, dst = g.intraGroup()
				check("intra-group", int(src), int(dst), true)
				src, dst = g.bisection()
				check("bisection", int(src), int(dst), false)
				hot := g.any()
				if src := g.into(hot); src == hot || int(src) >= nodes {
					t.Fatalf("%v seed %d: incast source %d into %d", s, seed, src, hot)
				}
			}
		}
	}
}

func TestPairGenSeeded(t *testing.T) {
	a, b, c := newPairGen(3, 16, 256), newPairGen(3, 16, 256), newPairGen(4, 16, 256)
	differs := false
	for i := 0; i < 100; i++ {
		sa, da := a.crossGroup()
		sb, db := b.crossGroup()
		sc, dc := c.crossGroup()
		if sa != sb || da != db {
			t.Fatal("one seed gave two pair sequences")
		}
		differs = differs || sa != sc || da != dc
	}
	if !differs {
		t.Error("two seeds gave the same pairs")
	}
}

// TestEndToEndCorrections checks the host corrections on repetitions
// measured on a host at half the tuning VM's speed that stole half of
// each repetition: every time must come out as on the tuning VM.
func TestEndToEndCorrections(t *testing.T) {
	slow := rep{
		wall: 4 * time.Second, setup: 400 * time.Millisecond, run: 2 * time.Second,
		cpu: 2 * time.Second, units: 100, steal: 0.5, ref: 2 * refNominal,
		allocBytes: 3 << 20, mallocs: 7,
	}
	vals := map[string]float64{}
	endToEndMetrics(vals, rep{peakRSS: 9}, []rep{slow, slow, slow})
	want := map[string]float64{
		"wall_s": 1, "setup_s": 0.1, "units_per_s": 200, "cpu_s": 1,
		"peak_rss_mib": 9, "alloc_mib": 3, "mallocs": 7,
	}
	for _, m := range endToEnd {
		if got := vals[m.name]; math.Abs(got-want[m.name]) > 1e-9*want[m.name] {
			t.Errorf("%s = %g, want %g", m.name, got, want[m.name])
		}
	}
	// The factor is the median over the repetitions, so one repetition
	// timed during a burst does not move it.
	burst := slow
	burst.ref = 10 * refNominal
	if f := speedFactor([]rep{slow, burst, slow}); f != 0.5 {
		t.Errorf("speedFactor with one burst = %g, want 0.5", f)
	}
}
