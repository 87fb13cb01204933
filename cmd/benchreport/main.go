// Command benchreport runs the hot-path benchmark suite (internal/bench)
// and writes the measurements as a structured results JSON file — the
// repo's tracked perf baseline:
//
//	go run ./cmd/benchreport                      # writes BENCH_hotpath.json
//	go run ./cmd/benchreport -out - -format table # print to stdout
//
//	# Compare against a previous baseline: prints per-benchmark deltas
//	# and exits non-zero when ns/unit regresses past -max-regress.
//	go run ./cmd/benchreport -baseline BENCH_hotpath.json -out BENCH_new.json
//
// Each row is measured once: benchreport builds the row's fixture, runs
// its warm-up units, then times its fixed unit count between two
// runtime.ReadMemStats calls. Each row reports ns, allocations and bytes
// per unit (packet / flow / cell) and the sharded-engine domain budget
// where one applies (0 = classic engine), and the meta block stamps the
// git revision, Go toolchain, and whether the simlint source-level
// invariant gate held (simlint_clean), so successive baselines are
// directly comparable and attributable. CI runs the compare mode against
// the committed baseline on every push, failing the build on a
// regression instead of silently uploading an artifact.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/lint"
	"repro/internal/results"
)

func main() {
	out := flag.String("out", "BENCH_hotpath.json", "output path ('-' for stdout)")
	format := flag.String("format", "json", "output format: table|json|csv")
	baseline := flag.String("baseline", "", "previous BENCH_hotpath.json to compare against")
	maxRegress := flag.Float64("max-regress", 0.15,
		"with -baseline: max tolerated regression (fraction) on the gated metric before exiting non-zero")
	gate := flag.String("gate", "ns",
		"with -baseline: which metric the -max-regress threshold applies to: ns|allocs|both. "+
			"ns/unit only compares runs from the same machine; allocs/unit is "+
			"machine-independent (the simulator is deterministic), so CI gates on it")
	flag.Parse()
	if *gate != "ns" && *gate != "allocs" && *gate != "both" {
		fmt.Fprintf(os.Stderr, "benchreport: -gate %q (want ns|allocs|both)\n", *gate)
		os.Exit(2)
	}

	enc, err := results.NewEncoder(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(2)
	}

	res := results.New("bench-hotpath")
	res.Meta.Desc = "hot-path perf baseline (ns/allocs/bytes per unit of work)"
	res.Meta.Rev = gitRev()
	res.Meta.GoVersion = runtime.Version()
	res.Meta.SimlintClean, res.Meta.SpineFuncs = simlintClean(os.Stderr)
	t := res.AddTable("benchmarks", "benchmark", "unit", "domains", "units", "ns/unit", "allocs/unit", "B/unit", "ns/sim-byte")
	start := time.Now()
	for _, r := range bench.Suite() {
		fmt.Fprintf(os.Stderr, "benchreport: running %s...\n", r.Name)
		ns, allocs, bytes := measure(r)
		// ns/sim-byte normalizes byte-moving rows by the payload one unit
		// simulates, making fidelities directly comparable (the flow
		// engine's raison d'être is this column vs PacketHotPath's).
		nsPerByte := results.NA()
		if r.SimBytes > 0 {
			nsPerByte = results.Float(ns/float64(r.SimBytes), 5)
		}
		t.Row(
			results.String(r.Name),
			results.String(r.Unit),
			results.Int(int64(r.Domains)),
			results.Int(int64(r.Units)),
			results.Float(ns, 1),
			results.Float(allocs, 2),
			results.Float(bytes, 1),
			nsPerByte,
		)
	}
	res.Meta.Wall = time.Since(start)

	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := enc.Encode(w, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "benchreport: wrote %s\n", *out)
	}

	if *baseline != "" {
		regressed, err := compare(os.Stderr, *baseline, res, *maxRegress, *gate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(3)
		}
	}
}

// measure builds r's fixture, runs its warm-up, and returns the wall
// nanoseconds, heap allocations and heap bytes per unit of one run of
// r.Units units. The unit count is fixed, so a row's allocations per unit
// do not depend on the host's speed.
func measure(r bench.Row) (ns, allocs, bytes float64) {
	run := r.Fixture()
	run(r.Warm)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	run(r.Units)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(r.Units)
	return float64(wall.Nanoseconds()) / n,
		float64(after.Mallocs-before.Mallocs) / n,
		float64(after.TotalAlloc-before.TotalAlloc) / n
}

// compare prints per-benchmark ns/unit and allocs/unit deltas of the
// fresh run against a stored baseline and reports whether any gated
// metric regressed by more than maxRegress. Benchmarks present on only
// one side are reported but never fail the comparison (suites may grow
// or shrink).
func compare(w io.Writer, path string, fresh *results.Result, maxRegress float64, gate string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	base, err := results.DecodeJSON(f)
	if err != nil {
		return false, fmt.Errorf("baseline %s: %w", path, err)
	}

	baseRows := map[string]benchRow{}
	for _, row := range benchRows(base) {
		baseRows[row.name] = row
	}
	rev := base.Meta.Rev
	if rev == "" {
		rev = "unknown rev"
	}
	fmt.Fprintf(w, "benchreport: comparing against %s (%s)\n", path, rev)
	regressed := false
	for _, row := range benchRows(fresh) {
		name := row.name
		old, ok := baseRows[name]
		if !ok {
			fmt.Fprintf(w, "  %-29s new benchmark (no baseline entry)\n", name)
			continue
		}
		delete(baseRows, name)
		dns := delta(old.ns, row.ns)
		dallocs := delta(old.allocs, row.allocs)
		fmt.Fprintf(w, "  %-29s ns/unit %11.1f -> %11.1f (%+6.1f%%)  allocs/unit %9.3f -> %9.3f (%+6.1f%%)\n",
			name, old.ns, row.ns, 100*dns, old.allocs, row.allocs, 100*dallocs)
		check := func(metric string, d float64) {
			if d > maxRegress {
				fmt.Fprintf(w, "  %-29s REGRESSION: %s +%.1f%% exceeds the %.0f%% threshold\n",
					name, metric, 100*d, 100*maxRegress)
				regressed = true
			}
		}
		if gate == "ns" || gate == "both" {
			check("ns/unit", dns)
		}
		if gate == "allocs" || gate == "both" {
			check("allocs/unit", dallocs)
		}
	}
	for _, row := range benchRows(base) {
		if _, ok := baseRows[row.name]; ok {
			fmt.Fprintf(w, "  %-29s dropped from suite (baseline only)\n", row.name)
		}
	}
	return regressed, nil
}

type benchRow struct {
	name       string
	ns, allocs float64
}

// benchRows lists a result's "benchmarks" table rows in table order.
func benchRows(r *results.Result) []benchRow {
	t := r.Table("benchmarks")
	if t == nil {
		return nil
	}
	ni, nsi, ai := t.Col("benchmark"), t.Col("ns/unit"), t.Col("allocs/unit")
	if ni < 0 || nsi < 0 || ai < 0 {
		return nil
	}
	rows := make([]benchRow, 0, len(t.Rows))
	for _, row := range t.Rows {
		ns, _ := row[nsi].Float64()
		allocs, _ := row[ai].Float64()
		rows = append(rows, benchRow{name: row[ni].Text(), ns: ns, allocs: allocs})
	}
	return rows
}

// delta returns the relative change from old to cur (positive = worse for
// cost metrics). A rise of at most 0.01 is rounding noise, not a ratio:
// the runtime adds a few allocations to a measured run now and then, and
// over a zero or near-zero allocs/unit baseline (FlowEngine, the
// FlowSharded rows, MailboxExchange, the ChoosePath policies) they would
// divide into a large regression. A larger rise over a zero baseline is
// an infinite regression.
func delta(old, cur float64) float64 {
	switch d := cur - old; {
	case d >= 0 && d <= 0.01:
		return 0
	case old == 0:
		return math.Inf(1)
	default:
		return d / old
	}
}

// simlintClean runs the full simlint suite over the module and reports
// whether the source-level invariant gate held, plus the size of the
// hot-path spine the call-graph analysis audited — so the perf baseline
// records both facts alongside the measured allocs. A load failure (no
// go tool, not in a checkout) stamps false with a note rather than
// hiding the field: a baseline that could not be checked should not
// claim cleanliness.
func simlintClean(w io.Writer) (*bool, int) {
	fmt.Fprintln(w, "benchreport: running simlint over ./...")
	clean := false
	rep, err := lint.Run(".", lint.All(), "./...")
	switch {
	case err != nil:
		fmt.Fprintf(w, "benchreport: simlint check failed (stamping simlint_clean=false): %v\n", err)
		return &clean, 0
	case len(rep.Diags) > 0:
		fmt.Fprintf(w, "benchreport: simlint found %d violation(s) (stamping simlint_clean=false)\n", len(rep.Diags))
		for _, d := range rep.Diags {
			fmt.Fprintf(w, "  %s\n", d)
		}
	default:
		clean = true
	}
	fmt.Fprintf(w, "benchreport: hot-path spine covers %d functions\n", len(rep.Spine))
	return &clean, len(rep.Spine)
}

// gitRev resolves the producing revision: the working tree's HEAD when
// run inside a checkout (the normal `go run ./cmd/benchreport` flow),
// with a -dirty suffix for uncommitted changes, falling back to the VCS
// stamp baked into the binary, else empty.
func gitRev() string {
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return ""
}
