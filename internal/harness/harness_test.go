package harness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// The harness tests assert the *shape* of each paper figure at reduced
// scale: who wins, by roughly what factor, and where crossovers fall.
// They run experiments through the registry and read cells by table and
// column name.

// runExp runs a registered experiment, failing the test on an error.
func runExp(t *testing.T, name string, opt Options) *results.Result {
	t.Helper()
	res, err := Lookup(name).Run(opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// table returns a result's named table, failing the test without one.
func table(t *testing.T, res *results.Result, name string) *results.Table {
	t.Helper()
	tab := res.Table(name)
	if tab == nil {
		t.Fatalf("%s: no %q table", res.Meta.Experiment, name)
	}
	return tab
}

// col returns the index of a table's named column, failing the test
// without one.
func col(t *testing.T, tab *results.Table, name string) int {
	t.Helper()
	i := tab.Col(name)
	if i < 0 {
		t.Fatalf("table %q has no %q column", tab.Name, name)
	}
	return i
}

// num returns the number in a row's named column, NaN for N.A.
func num(t *testing.T, tab *results.Table, row []results.Value, name string) float64 {
	t.Helper()
	v, ok := row[col(t, tab, name)].Float64()
	if !ok {
		return math.NaN()
	}
	return v
}

// label returns the label in a row's named column.
func label(t *testing.T, tab *results.Table, row []results.Value, name string) string {
	t.Helper()
	return row[col(t, tab, name)].Str
}

// series returns a result's named series, failing the test without one.
func series(t *testing.T, res *results.Result, name string) results.Series {
	t.Helper()
	for _, s := range res.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("%s: no %q series", res.Meta.Experiment, name)
	return results.Series{}
}

// heatmapKeys is the number of key columns before a heatmap's impact
// columns.
const heatmapKeys = 3

// maxImpactBy returns a heatmap's largest impact per value of its key
// column key; N.A. cells are skipped.
func maxImpactBy(t *testing.T, tab *results.Table, key string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, row := range tab.Rows {
		k := label(t, tab, row, key)
		for _, v := range row[heatmapKeys:] {
			if x, ok := v.Float64(); ok && x > out[k] {
				out[k] = x
			}
		}
	}
	return out
}

func TestFig2Shape(t *testing.T) {
	res := runExp(t, "fig2", Options{Nodes: 32, MaxIters: 500})
	dist := table(t, res, "distribution")
	metric := func(name string) float64 {
		for _, row := range dist.Rows {
			if label(t, dist, row, "metric") == name {
				return num(t, dist, row, "value_ns")
			}
		}
		t.Fatalf("missing metric %s", name)
		return 0
	}
	if m := metric("mean"); m < 330 || m > 370 {
		t.Errorf("switch latency mean = %.1f ns, want ~350", m)
	}
	if med := metric("median"); med < 330 || med > 370 {
		t.Errorf("median = %.1f ns", med)
	}
	// "All the distribution lying between 300 and 400 ns, except for a
	// few outliers."
	if p1 := metric("p1"); p1 < 290 {
		t.Errorf("p1 = %.1f ns, want >= 290", p1)
	}
	if p99 := metric("p99"); p99 > 410 {
		t.Errorf("p99 = %.1f ns, want <= 410", p99)
	}
	if !strings.Contains(results.TextString(res), "median") {
		t.Error("render missing median row")
	}
}

func TestFig4Shape(t *testing.T) {
	grid := table(t, runExp(t, "fig4", Options{Nodes: 32, MaxIters: 12}), "grid")
	byKey := map[string][]results.Value{}
	for _, row := range grid.Rows {
		byKey[label(t, grid, row, "distance")+label(t, grid, row, "size")] = row
	}
	cell := func(key, name string) float64 {
		row, ok := byKey[key]
		if !ok {
			t.Fatalf("missing point %s", key)
		}
		return num(t, grid, row, name)
	}
	median := func(key string) float64 { return cell(key, "median") }
	gbits := func(key string) float64 { return cell(key, "Gbps") }
	// Latency ordering at 8 B with bounded spread (<=40% in the paper;
	// our fabric numbers are slightly tighter, we allow up to 2x).
	same := median("same switch8B")
	cross := median("different groups8B")
	if !(same < cross) {
		t.Errorf("8B latency ordering: same=%v cross=%v", same, cross)
	}
	if cross/same > 2 {
		t.Errorf("8B distance spread = %.2f, want < 2", cross/same)
	}
	// Large messages converge (<= ~15%).
	s4, c4 := median("same switch4MiB"), median("different groups4MiB")
	if c4/s4 > 1.15 {
		t.Errorf("4MiB distance spread = %.3f", c4/s4)
	}
	// Bandwidth ladder (paper: ~0.08, ~9.5, 70-80(+), ~97.3 Gb/s).
	checks := []struct {
		key    string
		lo, hi float64
	}{
		{"same switch8B", 0.04, 0.15},
		{"same switch1KiB", 7, 12},
		{"same switch128KiB", 60, 92},
		{"same switch4MiB", 93, 99},
	}
	for _, c := range checks {
		got := gbits(c.key)
		if got < c.lo || got > c.hi {
			t.Errorf("%s bandwidth = %.2f Gb/s, want [%v, %v]", c.key, got, c.lo, c.hi)
		}
	}
	// Bandwidth spread across distances <= 15% (paper).
	for _, size := range Fig4Sizes {
		a := gbits("same switch" + workloads.SizeLabel(size))
		b := gbits("different groups" + workloads.SizeLabel(size))
		ratio := a / b
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > 1.15 {
			t.Errorf("size %s: bandwidth spread %.3f > 1.15", workloads.SizeLabel(size), ratio)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	rtt := table(t, runExp(t, "fig5", Options{Nodes: 32, MaxIters: 3}), "rtt")
	at := func(stack, size string) float64 {
		for _, row := range rtt.Rows {
			if label(t, rtt, row, "stack") == stack && label(t, rtt, row, "size") == size {
				return num(t, rtt, row, "rtt2_us")
			}
		}
		t.Fatalf("missing point %s/%s", stack, size)
		return 0
	}
	// Small-message ordering: verbs < libfabric < mpi << udp < tcp.
	small := []string{"ibverbs", "libfabric", "mpi", "udp", "tcp"}
	for i := 1; i < len(small); i++ {
		if at(small[i-1], "8B") >= at(small[i], "8B") {
			t.Errorf("8B ordering broken at %s", small[i])
		}
	}
	// MPI adds only a marginal overhead over libfabric at small sizes.
	if d := at("mpi", "8B") - at("libfabric", "8B"); d > 1 {
		t.Errorf("MPI overhead over libfabric = %.2f us, want < 1", d)
	}
	// UDP is ~an order of magnitude above verbs at 8 B.
	if ratio := at("udp", "8B") / at("ibverbs", "8B"); ratio < 3 {
		t.Errorf("udp/verbs at 8B = %.1f, want >= 3", ratio)
	}
	// Convergence at 16 MiB: all stacks within ~2.5x.
	if ratio := at("tcp", "16MiB") / at("ibverbs", "16MiB"); ratio > 2.5 {
		t.Errorf("tcp/verbs at 16MiB = %.2f", ratio)
	}
}

func TestFig6Shape(t *testing.T) {
	points := table(t, runExp(t, "fig6", Options{Nodes: 64, Seed: 2}), "points")
	get := func(series string, size int64, col string) float64 {
		for _, row := range points.Rows {
			if label(t, points, row, "series") == series && label(t, points, row, "size") == workloads.SizeLabel(size) {
				return num(t, points, row, col)
			}
		}
		t.Fatalf("missing %s/%d", series, size)
		return 0
	}
	// Bisection approaches its theoretical peak for large messages.
	if f := get("bisection", 128*1024, "peak_frac"); f < 0.9 {
		t.Errorf("bisection 128KiB = %.2f of peak, want >= 0.9", f)
	}
	// Monotone-ish rise for bisection.
	if get("bisection", 8, "Tbps") >= get("bisection", 8192, "Tbps") {
		t.Error("bisection bandwidth did not rise with size")
	}
	// The 256 B algorithm switch produces a throughput dip: 512 B per pair
	// (pairwise) is well below 128 B (Bruck aggregation).
	d128 := get("alltoall", 128, "Tbps")
	d512 := get("alltoall", 512, "Tbps")
	if d512 >= d128 {
		t.Errorf("no algorithm-switch dip: 128B=%.3f 512B=%.3f", d128, d512)
	}
	// And it recovers at larger sizes.
	if get("alltoall", 32*1024, "Tbps") <= d512 {
		t.Error("alltoall did not recover after the dip")
	}
}

func TestFig9Shape(t *testing.T) {
	// The paper's headline: Aries worst-case impact is one-to-two orders
	// of magnitude; Slingshot stays below ~1.5.
	res := runExp(t, "fig9", Options{Nodes: 48, MinIters: 3, MaxIters: 6, Seed: 11, Victims: VictimsQuick})
	heat := table(t, res, "heatmap")
	max := maxImpactBy(t, heat, "system")
	aries := max["Aries (Crystal)"]
	sling := max["Slingshot (Shandy)"]
	if aries < 3 {
		t.Errorf("aries max impact = %.2f, want >= 3", aries)
	}
	if sling > 2.0 {
		t.Errorf("slingshot max impact = %.2f, want <= 2.0", sling)
	}
	if aries < 2*sling {
		t.Errorf("aries (%.1f) should be >> slingshot (%.2f)", aries, sling)
	}
	// Impact grows with aggressor fraction on Aries incast rows.
	var inc10, inc90 float64
	for _, row := range heat.Rows {
		if label(t, heat, row, "system") != "Aries (Crystal)" || label(t, heat, row, "aggressor") != "incast" {
			continue
		}
		m := 0.0
		for _, v := range row[heatmapKeys:] {
			if x, ok := v.Float64(); ok && x > m {
				m = x
			}
		}
		if f := num(t, heat, row, "aggr_frac"); f < 0.2 {
			inc10 = m
		} else if f > 0.8 {
			inc90 = m
		}
	}
	if inc90 <= inc10 {
		t.Errorf("impact should grow with aggressor share: 10%%=%.1f 90%%=%.1f", inc10, inc90)
	}
	if !strings.Contains(results.TextString(res), "incast") {
		t.Error("render missing aggressor labels")
	}
}

func TestFig11NAandScale(t *testing.T) {
	res := runExp(t, "fig11", Options{Nodes: 48, MinIters: 2, MaxIters: 4, Seed: 5})
	heat := table(t, res, "heatmap")
	// MILC and HPCG must be N.A. where the victim node count is not a
	// power of two (victim fractions 0.75/0.25 of 48 are 36/12).
	sawNA := false
	for _, row := range heat.Rows {
		for _, app := range []string{"MILC", "HPCG"} {
			if row[col(t, heat, app)].Kind == results.KindNA {
				sawNA = true
			}
		}
	}
	if !sawNA {
		t.Error("expected N.A. cells for MILC/HPCG at non-power-of-two counts")
	}
	if !strings.Contains(results.TextString(res), "N.A.") {
		t.Error("render missing N.A. markers")
	}
}

func TestFig12Shape(t *testing.T) {
	// Reduced grid: two message sizes, two burst sizes, two gaps. The
	// shape: 1 MiB aggressor messages are fully controlled (impact ~1);
	// mid-size (128 KiB) builds some transient congestion.
	opt := Options{Nodes: 24, MinIters: 4, MaxIters: 8, Seed: 13}.withDefaults(Lookup("fig12").DefaultOptions)
	bursty := table(t, fig12(opt,
		[]int64{128 * 1024, 1 << 20},
		[]int{100, 10000},
		[]int64{1, 10000}), "bursty")
	max := map[string]float64{}
	for _, row := range bursty.Rows {
		msg, impact := label(t, bursty, row, "aggr_msg"), num(t, bursty, row, "impact")
		if impact > max[msg] {
			max[msg] = impact
		}
		// All Slingshot bursty impacts stay small in absolute terms (the
		// paper's worst is 1.21).
		if impact > 2.2 {
			t.Errorf("bursty impact %v = %.2f, want << aries scale", row, impact)
		}
	}
	if max["1MiB"] > 1.35 {
		t.Errorf("1MiB bursty impact = %.2f, want ~1 (CC fully engages)", max["1MiB"])
	}
	if max["128KiB"] < 1.0 {
		t.Errorf("128KiB impact = %.2f", max["128KiB"])
	}
}

func TestFig13Shape(t *testing.T) {
	res := runExp(t, "fig13", Options{Nodes: 24, Seed: 3})
	steady := table(t, res, "steady-state")
	same := num(t, steady, steady.Rows[0], "impact")
	separate := num(t, steady, steady.Rows[1], "impact")
	// Paper: same TC ~2.85x, separate TC ~1.15x.
	if same < 1.3 {
		t.Errorf("same-TC impact = %.2f, want >= 1.3", same)
	}
	if separate > 1.4 {
		t.Errorf("separate-TC impact = %.2f, want <= 1.4", separate)
	}
	if same <= separate {
		t.Error("traffic classes provided no protection")
	}
	if len(series(t, res, "same-tc").Points) == 0 || len(series(t, res, "separate-tc").Points) == 0 {
		t.Error("missing time series")
	}
}

func TestFig14Shape(t *testing.T) {
	res := runExp(t, "fig14", Options{Nodes: 24, Seed: 3})
	shares := table(t, res, "overlap-share")
	same, sep := shares.Rows[0], shares.Rows[1]
	// Separate TCs: the 80%/10%-min config splits ~80/20 (the spare 10%
	// goes to the lowest-share class).
	if s := num(t, shares, sep, "job1_share"); s < 0.74 || s > 0.86 {
		t.Errorf("separate-TC job1 share = %.2f, want ~0.80", s)
	}
	if s := num(t, shares, sep, "job2_share"); s < 0.14 || s > 0.26 {
		t.Errorf("separate-TC job2 share = %.2f, want ~0.20", s)
	}
	// Same TC: closer to even than the guaranteed split.
	if a, b := num(t, shares, same, "job1_share"), num(t, shares, sep, "job1_share"); a >= b {
		t.Errorf("same-TC split (%.2f) should be more even than separate (%.2f)", a, b)
	}
	// Job 2 ramps to full bandwidth after job 1 ends.
	for _, name := range []string{"same-tc/job2", "separate-tc/job2"} {
		j2 := series(t, res, name).Points
		tail := j2[len(j2)-3].Y
		mid := j2[15].Y
		if tail <= mid {
			t.Errorf("job2 did not ramp after job1 ended: mid=%.1f tail=%.1f", mid, tail)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	tail := table(t, runExp(t, "fig8", Options{Nodes: 64, MaxIters: 25, Seed: 9}), "tail")
	type key struct{ app, sys string }
	imp := map[key]float64{}
	for _, row := range tail.Rows {
		imp[key{label(t, tail, row, "app"), label(t, tail, row, "system")}] = num(t, tail, row, "impact")
	}
	for _, app := range []string{"silo", "xapian", "img-dnn"} {
		a := imp[key{app, "Aries (Crystal)"}]
		s := imp[key{app, "Slingshot (Shandy)"}]
		if s > 1.6 {
			t.Errorf("%s on slingshot impact = %.2f, want small", app, s)
		}
		if a < s {
			t.Errorf("%s: aries (%.2f) should exceed slingshot (%.2f)", app, a, s)
		}
	}
	// Sphinx degrades least on Aries (lowest comm/comp ratio).
	sphinx := imp[key{"sphinx", "Aries (Crystal)"}]
	silo := imp[key{"silo", "Aries (Crystal)"}]
	if sphinx > silo {
		t.Errorf("sphinx (%.2f) should degrade less than silo (%.2f) on aries", sphinx, silo)
	}
}

func TestVictimSets(t *testing.T) {
	if n := len(Victims(VictimsApps)); n != 9 {
		t.Errorf("apps set = %d, want 9", n)
	}
	if n := len(Victims(VictimsQuick)); n != 20 {
		t.Errorf("quick set = %d, want 20", n)
	}
	if n := len(Victims(VictimsFull)); n != 48 {
		t.Errorf("full set = %d, want 48 (9 apps + 39 microbenchmarks)", n)
	}
}

func TestCellNAForPowerOfTwoApps(t *testing.T) {
	v := AppVictim(workloads.MILC())
	r := RunCell(CellSpec{
		Sys: Shandy(32), TotalNodes: 24, VictimFrac: 0.5, // 12 victims: not 2^k
		Aggressor: IncastAggressor, AggrPPN: 1, Seed: 1, MinIters: 2, MaxIters: 3,
	}, v)
	if !r.NA {
		t.Error("MILC at 12 nodes should be N.A.")
	}
	if !math.IsNaN(r.Impact) {
		t.Error("NA cell carries a number")
	}
}

func TestRunCellDeterminism(t *testing.T) {
	v := BenchVictim(workloads.BarrierBench())
	spec := CellSpec{
		Sys: Shandy(32), TotalNodes: 24, VictimFrac: 0.5,
		Aggressor: IncastAggressor, AggrPPN: 1, Seed: 21, MinIters: 3, MaxIters: 5,
	}
	a := RunCell(spec, v)
	b := RunCell(spec, v)
	if a.Impact != b.Impact || a.Isolated != b.Isolated {
		t.Errorf("non-deterministic cell: %+v vs %+v", a, b)
	}
}

// TestMeasureConvergenceProtocol pins measureVictim's stopping rule: at
// least minIters iterations, then stop once the 95% CI of the median is
// within 5%, and never run more than maxIters.
func TestMeasureConvergenceProtocol(t *testing.T) {
	sys := System{
		Topo: topology.Config{Groups: 2, SwitchesPerGroup: 4, NodesPerSwitch: 8, GlobalPerPair: 4},
		Prof: fabric.SlingshotProfile(),
	}
	v := BenchVictim(workloads.BarrierBench())
	iterations := func(minIters, maxIters int) int {
		net := sys.build(3)
		j := mpi.NewJob(net, nodeRange(8), mpi.JobOpts{Stack: mpi.MPI})
		s := stats.NewSample(maxIters)
		measureVictim(s, j, v, sim.NewRNG(3), minIters, maxIters)
		return s.Len()
	}
	// A barrier on a quiet fabric converges as soon as it may stop.
	// minIters sits above Converged's own 6-sample floor, so stopping
	// there shows the loop honours it.
	if n := iterations(10, 200); n != 10 {
		t.Errorf("quiet barrier ran %d iterations, want to stop at minIters = 10 (maxIters 200)", n)
	}
	if n := iterations(3, 3); n != 3 {
		t.Errorf("minIters = maxIters = 3 ran %d iterations, want exactly 3", n)
	}
}
