package harness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The harness tests assert the *shape* of each paper figure at reduced
// scale: who wins, by roughly what factor, and where crossovers fall.

func TestFig2Shape(t *testing.T) {
	r := Fig2SwitchLatency(Options{Nodes: 32, MaxIters: 500})
	s := r.Samples
	if m := s.Mean(); m < 330 || m > 370 {
		t.Errorf("switch latency mean = %.1f ns, want ~350", m)
	}
	if med := s.Median(); med < 330 || med > 370 {
		t.Errorf("median = %.1f ns", med)
	}
	// "All the distribution lying between 300 and 400 ns, except for a
	// few outliers."
	if p1 := s.Percentile(1); p1 < 290 {
		t.Errorf("p1 = %.1f ns, want >= 290", p1)
	}
	if p99 := s.Percentile(99); p99 > 410 {
		t.Errorf("p99 = %.1f ns, want <= 410", p99)
	}
	if !strings.Contains(results.TextString(r.Result()), "median") {
		t.Error("render missing median row")
	}
}

func TestFig4Shape(t *testing.T) {
	r := Fig4Distance(Options{Nodes: 32, MaxIters: 12})
	byKey := map[string]Fig4Row{}
	for _, row := range r.Rows {
		byKey[row.Distance+sizeName(row.Size)] = row
	}
	// Latency ordering at 8 B with bounded spread (<=40% in the paper;
	// our fabric numbers are slightly tighter, we allow up to 2x).
	same := byKey["same switch8B"].Latency.Median
	cross := byKey["different groups8B"].Latency.Median
	if !(same < cross) {
		t.Errorf("8B latency ordering: same=%v cross=%v", same, cross)
	}
	if cross/same > 2 {
		t.Errorf("8B distance spread = %.2f, want < 2", cross/same)
	}
	// Large messages converge (<= ~15%).
	s4, c4 := byKey["same switch4MiB"].Latency.Median, byKey["different groups4MiB"].Latency.Median
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
		got := byKey[c.key].GBits
		if got < c.lo || got > c.hi {
			t.Errorf("%s bandwidth = %.2f Gb/s, want [%v, %v]", c.key, got, c.lo, c.hi)
		}
	}
	// Bandwidth spread across distances <= 15% (paper).
	for _, size := range Fig4Sizes {
		a := byKey["same switch"+sizeName(size)].GBits
		b := byKey["different groups"+sizeName(size)].GBits
		ratio := a / b
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > 1.15 {
			t.Errorf("size %s: bandwidth spread %.3f > 1.15", sizeName(size), ratio)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	r := Fig5Stacks(Options{Nodes: 32, MaxIters: 3})
	at := func(stack, size string) float64 {
		for _, p := range r.Points {
			if p.Stack.String() == stack && sizeName(p.Size) == size {
				return p.RTT2.Microseconds()
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
	r := Fig6Bisection(Options{Nodes: 64, Seed: 2})
	get := func(series string, size int64) Fig6Point {
		for _, p := range r.Points {
			if p.Series == series && p.Size == size {
				return p
			}
		}
		t.Fatalf("missing %s/%d", series, size)
		return Fig6Point{}
	}
	// Bisection approaches its theoretical peak for large messages.
	if f := get("bisection", 128*1024).PeakFrc; f < 0.9 {
		t.Errorf("bisection 128KiB = %.2f of peak, want >= 0.9", f)
	}
	// Monotone-ish rise for bisection.
	if get("bisection", 8).TBits >= get("bisection", 8192).TBits {
		t.Error("bisection bandwidth did not rise with size")
	}
	// The 256 B algorithm switch produces a throughput dip: 512 B per pair
	// (pairwise) is well below 128 B (Bruck aggregation).
	d128 := get("alltoall", 128).TBits
	d512 := get("alltoall", 512).TBits
	if d512 >= d128 {
		t.Errorf("no algorithm-switch dip: 128B=%.3f 512B=%.3f", d128, d512)
	}
	// And it recovers at larger sizes.
	if get("alltoall", 32*1024).TBits <= d512 {
		t.Error("alltoall did not recover after the dip")
	}
}

func TestFig9Shape(t *testing.T) {
	// The paper's headline: Aries worst-case impact is one-to-two orders
	// of magnitude; Slingshot stays below ~1.5.
	opt := Options{Nodes: 48, MinIters: 3, MaxIters: 6, Seed: 11}
	r := Fig9Heatmap(opt, VictimsQuick)
	max := r.Max()
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
	for _, row := range r.Rows {
		if row.System != "Aries (Crystal)" || row.Aggressor != "incast" {
			continue
		}
		m := 0.0
		for _, c := range row.Cells {
			if !c.NA && c.Impact > m {
				m = c.Impact
			}
		}
		if row.AggrFrac < 0.2 {
			inc10 = m
		}
		if row.AggrFrac > 0.8 {
			inc90 = m
		}
	}
	if inc90 <= inc10 {
		t.Errorf("impact should grow with aggressor share: 10%%=%.1f 90%%=%.1f", inc10, inc90)
	}
	if !strings.Contains(results.TextString(r.Result()), "incast") {
		t.Error("render missing aggressor labels")
	}
}

func TestFig11NAandScale(t *testing.T) {
	r := Fig11FullScale(Options{Nodes: 48, MinIters: 2, MaxIters: 4, Seed: 5})
	// MILC and HPCG must be N.A. where the victim node count is not a
	// power of two (victim fractions 0.75/0.25 of 48 are 36/12).
	sawNA := false
	for _, row := range r.Rows {
		for i, c := range row.Cells {
			if (r.Columns[i] == "MILC" || r.Columns[i] == "HPCG") && c.NA {
				sawNA = true
				if !math.IsNaN(c.Impact) {
					t.Error("NA cell carries a number")
				}
			}
		}
	}
	if !sawNA {
		t.Error("expected N.A. cells for MILC/HPCG at non-power-of-two counts")
	}
	if !strings.Contains(results.TextString(r.Result()), "N.A.") {
		t.Error("render missing N.A. markers")
	}
}

func TestFig12Shape(t *testing.T) {
	// Reduced grid: two message sizes, two burst sizes, two gaps. The
	// shape: 1 MiB aggressor messages are fully controlled (impact ~1);
	// mid-size (128 KiB) builds some transient congestion.
	r := Fig12Bursty(Options{Nodes: 24, MinIters: 4, MaxIters: 8, Seed: 13},
		[]int64{128 * 1024, 1 << 20},
		[]int{100, 10000},
		[]int64{1, 10000})
	max := r.MaxImpact()
	if max[1<<20] > 1.35 {
		t.Errorf("1MiB bursty impact = %.2f, want ~1 (CC fully engages)", max[1<<20])
	}
	if max[128*1024] < 1.0 {
		t.Errorf("128KiB impact = %.2f", max[128*1024])
	}
	// All Slingshot bursty impacts stay small in absolute terms (the
	// paper's worst is 1.21).
	for _, c := range r.Cells {
		if c.Impact > 2.2 {
			t.Errorf("bursty impact %v = %.2f, want << aries scale", c, c.Impact)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	r, err := Fig13TrafficClasses(Options{Nodes: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: same TC ~2.85x, separate TC ~1.15x.
	if r.SameImpact < 1.3 {
		t.Errorf("same-TC impact = %.2f, want >= 1.3", r.SameImpact)
	}
	if r.SeparateImpact > 1.4 {
		t.Errorf("separate-TC impact = %.2f, want <= 1.4", r.SeparateImpact)
	}
	if r.SameImpact <= r.SeparateImpact {
		t.Error("traffic classes provided no protection")
	}
	if len(r.SameTC) == 0 || len(r.SeparateTC) == 0 {
		t.Error("missing time series")
	}
}

func TestFig14Shape(t *testing.T) {
	r, err := Fig14Bandwidth(Options{Nodes: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	same, sep := r.OverlapShares()
	// Separate TCs: the 80%/10%-min config splits ~80/20 (the spare 10%
	// goes to the lowest-share class).
	if sep[0] < 0.74 || sep[0] > 0.86 {
		t.Errorf("separate-TC job1 share = %.2f, want ~0.80", sep[0])
	}
	if sep[1] < 0.14 || sep[1] > 0.26 {
		t.Errorf("separate-TC job2 share = %.2f, want ~0.20", sep[1])
	}
	// Same TC: closer to even than the guaranteed split.
	if same[0] >= sep[0] {
		t.Errorf("same-TC split (%.2f) should be more even than separate (%.2f)",
			same[0], sep[0])
	}
	// Job 2 ramps to full bandwidth after job 1 ends.
	for _, series := range [][]Fig14Series{r.SameTC, r.SeparateTC} {
		j2 := series[1]
		tail := j2.GbsNode[len(j2.GbsNode)-3]
		mid := j2.GbsNode[15]
		if tail <= mid {
			t.Errorf("job2 did not ramp after job1 ended: mid=%.1f tail=%.1f", mid, tail)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	r := Fig8Tailbench(Options{Nodes: 64, MaxIters: 25, Seed: 9})
	type key struct{ app, sys string }
	imp := map[key]float64{}
	for _, e := range r.Entries {
		imp[key{e.App, e.System}] = e.Congested.Mean() / e.Isolated.Mean()
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

func TestMeasureConvergenceProtocol(t *testing.T) {
	// The CI-based stopping rule ends early for stable victims.
	sys := Shandy(16)
	net := sys.build(3)
	_ = net
	v := BenchVictim(workloads.BarrierBench())
	spec := CellSpec{
		Sys: sys, TotalNodes: 12, VictimFrac: 0.5,
		Aggressor: AlltoallAggressor, AggrPPN: 1, Seed: 3,
		MinIters: 6, MaxIters: 200,
	}
	r := RunCell(spec, v)
	if math.IsNaN(r.Impact) {
		t.Fatal("impact NaN")
	}
	_ = sim.Time(0)
}
