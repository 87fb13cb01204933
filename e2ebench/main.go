// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload of the simulator for a fixed host-time budget, checks
// every repetition's output, and prints the metrics listed in
// BENCHMARK.json: the end-to-end figures of an untraced run (-trace 0),
// or the per-layer figures of a run whose second half has the CPU
// profiler on (-trace 1). The program is measured only from outside:
// spans around the public calls the benchmark makes, the public
// counters, and a CPU profile bucketed by the leaf frame's package.
//
// The last line of standard output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through e2ebench/run.sh, which builds
// this module first.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "grid-policy", "workload to run: grid-policy, packet-sharded or flow-scale")
	seed := flag.Uint64("seed", 7, "workload seed (7 is the golden seed of grid-policy)")
	seconds := flag.Int("seconds", 10, "host seconds of measurement")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a profiled run, 0 end-to-end metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// run measures workload w and prints the report and the result line.
func run(w workload, seed uint64, budget time.Duration, traced bool) error {
	fmt.Printf("machine %s\n", mustJSON(machineTag()))
	fmt.Printf("workload %s seed %d budget %s trace %v (throughput unit: %s)\n", w.name, seed, budget, traced, w.unit)
	repFn, err := w.prep(seed)
	if err != nil {
		return err
	}
	// The first repetition is a warm-up, in a process that has run nothing
	// else: it gives peak_rss_mib and is in no median. The reference
	// kernel is built after it, so its tables are not in that peak.
	start := time.Now()
	warm := repeat(repFn, nil, 0, 1)
	k := newRefKernel()
	var res result
	table, vals := endToEnd, map[string]float64{}
	if !traced {
		reps := repeat(repFn, k, budget-time.Since(start), 2)
		res = tally(append(warm, reps...))
		endToEndMetrics(vals, warm[0], reps)
	} else {
		// The first half is untraced: the baseline the trace overhead is
		// measured against. The second half runs under the profiler.
		base := repeat(repFn, k, budget/2-time.Since(start), 1)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
		reps := repeat(repFn, k, budget/2, 2)
		pprof.StopCPUProfile()
		selfCPU, samples, err := bucketProfile(&prof)
		if err != nil {
			return err
		}
		res = tally(append(append(warm, base...), reps...))
		table = perLayer
		if !perLayerMetrics(vals, reps, base, selfCPU, samples) {
			res.failed++
			fmt.Println("layer rows do not add up")
		}
	}
	for _, m := range table {
		fmt.Printf("%-24s %16.6g %s\n", m.name, vals[m.name], m.unit)
	}
	fmt.Println(mustJSON(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   emit(table, vals),
	}))
	return nil
}

// rep is the measurement of one repetition of a workload. The workload
// fills the spans, the run phase, its units and counters and its check
// outcome; repeat fills the process-level deltas around it.
type rep struct {
	spans  [numSpans]time.Duration
	setup  time.Duration // this repetition's set-up sample (setup_s)
	run    time.Duration // the run phase throughput is divided by
	runCPU time.Duration // process CPU over the run phase
	units  int64         // cells, packets or flows completed
	sim    simCounts

	attempted, failed int64

	wall, cpu                     time.Duration
	allocBytes, mallocs, gcCycles uint64
	gcPause                       time.Duration
	peakRSS                       float64       // the process's peak RSS so far, MiB
	steal                         float64       // share of the VM's CPU time the hypervisor stole
	ref                           time.Duration // the reference kernel's time just before
}

// span names one public-call boundary the benchmark times.
type span int

const (
	spanTopo span = iota
	spanFabric
	spanRun
	spanHarness
	spanEncode
	spanCheck
	numSpans
)

var spanNames = [numSpans]string{
	"topology.build_s", "fabric.build_s", "fabric.run_s",
	"harness.run_s", "results.encode_s", "bench.check_s",
}

// timed runs f, charges its wall time to span s and returns it.
func (r *rep) timed(s span, f func()) time.Duration {
	t := time.Now()
	f()
	d := time.Since(t)
	r.spans[s] += d
	return d
}

// simCounts are the simulated quantities of one repetition. For one
// seed they must repeat exactly; any difference is a failure.
type simCounts struct {
	EndTimePs                                    int64
	MsgsCompleted, PktsDelivered, BytesDelivered int64
	Signals, E2ERetries, Overdrafts              int64
	Epochs                                       int64
	CCSignals, CCBlocks                          int64
	FlowsStarted, FlowsCompleted, FlowBytes      int64
	Cells, CellsNA                               int64
}

// repeat runs fn until budget has passed and at least minReps
// repetitions are done. Each repetition starts on a collected heap whose
// free memory is back with the OS, so no background scavenging overlaps
// it; with a reference kernel k, it times k first, while the program
// under test is idle.
func repeat(fn func(*rep) error, k *refKernel, budget time.Duration, minReps int) []rep {
	var reps []rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		debug.FreeOSMemory()
		var ref time.Duration
		if k != nil {
			ref = k.time()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		steal0 := stealTicks()
		cpu0 := cpuTime()
		t0 := time.Now()
		r := rep{ref: ref}
		if err := fn(&r); err != nil {
			// A workload error is a failed repetition, not a crash: the
			// result line still reports it.
			fmt.Fprintln(os.Stderr, "e2ebench: repetition failed:", err)
			r.failed++
			if r.attempted == 0 {
				r.attempted = 1
			}
		}
		r.wall = time.Since(t0)
		r.cpu = cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		r.mallocs = m1.Mallocs - m0.Mallocs
		r.gcCycles = uint64(m1.NumGC - m0.NumGC)
		r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		r.peakRSS = peakRSSMiB()
		r.steal = float64(stealTicks()-steal0) / clockTicks / (r.wall.Seconds() * float64(runtime.NumCPU()))
		label := "warm-up"
		if k != nil {
			label = fmt.Sprintf("rep %d", len(reps))
		}
		fmt.Printf("%s: wall %.4fs setup %.6fs run %.4fs units %d cpu %.4fs peak RSS %.1fMiB steal %.3f ref %.3fms\n",
			label, r.wall.Seconds(), r.setup.Seconds(), r.run.Seconds(), r.units, r.cpu.Seconds(), r.peakRSS, r.steal,
			float64(r.ref)/float64(time.Millisecond))
		reps = append(reps, r)
	}
	return reps
}

// result is the check outcome of a whole run.
type result struct{ attempted, failed int64 }

// tally sums the repetitions' check outcomes and adds one failure for
// every repetition whose simulated counts differ from the first's.
func tally(reps []rep) result {
	var res result
	for i, r := range reps {
		res.attempted += r.attempted
		res.failed += r.failed
		if i > 0 && r.sim != reps[0].sim {
			fmt.Printf("repetition %d: simulated counts differ from repetition 0: %+v vs %+v\n", i, r.sim, reps[0].sim)
			res.failed++
		}
	}
	return res
}

// endToEndMetrics fills the untraced run's metrics: medians over the
// timed repetitions, except peak_rss_mib, the peak RSS of the process
// after the warm-up, a process that has run the workload once. Host times
// are corrected for the host twice: each repetition's wall times lose the
// share the hypervisor stole (unstolen), and the run's times are scaled by
// its speedFactor.
func endToEndMetrics(vals map[string]float64, warm rep, timed []rep) {
	f := speedFactor(timed)
	vals["wall_s"] = f * median(timed, func(r rep) float64 { return r.unstolen(r.wall) })
	vals["setup_s"] = f * median(timed, func(r rep) float64 { return r.unstolen(r.setup) })
	vals["units_per_s"] = median(timed, func(r rep) float64 { return float64(r.units) / r.unstolen(r.run) }) / f
	vals["cpu_s"] = f * median(timed, func(r rep) float64 { return r.cpu.Seconds() })
	vals["peak_rss_mib"] = warm.peakRSS
	vals["alloc_mib"] = median(timed, func(r rep) float64 { return float64(r.allocBytes) / (1 << 20) })
	vals["mallocs"] = median(timed, func(r rep) float64 { return float64(r.mallocs) })
}

// unstolen is d, a span of repetition r, less the share of r's wall time
// the hypervisor stole from this VM's CPUs, in seconds. Stolen time is
// time the program could not run; it comes in bursts of seconds.
func (r rep) unstolen(d time.Duration) float64 { return d.Seconds() * (1 - r.steal) }

// speedFactor is refNominal over the median time of the reference kernel
// across the run's repetitions. Multiplying a host time by it gives the
// time on a host as fast as the VM the benchmark was tuned on. The kernel
// runs between repetitions, after the heap is collected and returned to
// the OS, so the program under test is idle while it runs and cannot move
// the factor; only the host can.
func speedFactor(reps []rep) float64 {
	return refNominal.Seconds() / median(reps, func(r rep) float64 { return r.ref.Seconds() })
}

// perLayerMetrics fills the traced run's metrics as means per traced
// repetition, so the spans plus bench.residual_s add up to bench.wall_s
// and the module rows add up to bench.profile_cpu_s. It reports whether
// both sums hold with a non-negative residual.
func perLayerMetrics(vals map[string]float64, reps, base []rep, selfCPU map[string]time.Duration, samples int64) bool {
	n := float64(len(reps))
	mean := func(f func(r rep) float64) float64 {
		s := 0.0
		for _, r := range reps {
			s += f(r)
		}
		return s / n
	}
	var profTotal, moduleSum time.Duration
	for _, d := range selfCPU {
		profTotal += d
	}
	for _, m := range modules {
		vals[m+".self_cpu_s"] = selfCPU[m].Seconds() / n
		moduleSum += selfCPU[m]
	}
	vals["bench.profile_cpu_s"] = profTotal.Seconds() / n
	vals["bench.profile_samples"] = float64(samples)

	wall := mean(func(r rep) float64 { return r.wall.Seconds() })
	spanSum := 0.0
	for s, name := range spanNames {
		v := mean(func(r rep) float64 { return r.spans[s].Seconds() })
		vals[name] = v
		spanSum += v
	}
	vals["bench.wall_s"] = wall
	vals["bench.residual_s"] = wall - spanSum
	// Each half's wall is scaled by its own speed factor, so host drift
	// between the halves does not read as overhead.
	vals["bench.trace_overhead"] = speedFactor(reps)*median(reps, func(r rep) float64 { return r.wall.Seconds() })/
		(speedFactor(base)*median(base, func(r rep) float64 { return r.wall.Seconds() })) - 1
	vals["bench.steal_frac"] = mean(func(r rep) float64 { return r.steal })
	vals["bench.ref_s"] = median(append(base, reps...), func(r rep) float64 { return r.ref.Seconds() })

	c := reps[0].sim
	runS := vals["fabric.run_s"]
	vals["sim.end_time_us"] = float64(c.EndTimePs) / 1e6
	vals["fabric.msgs_completed"] = float64(c.MsgsCompleted)
	vals["fabric.pkts_delivered"] = float64(c.PktsDelivered)
	vals["fabric.bytes_delivered"] = float64(c.BytesDelivered)
	vals["fabric.signals"] = float64(c.Signals)
	vals["fabric.e2e_retries"] = float64(c.E2ERetries)
	vals["fabric.overdrafts"] = float64(c.Overdrafts)
	vals["fabric.ns_per_pkt"] = perUnit(runS, c.PktsDelivered)
	vals["fabric.ns_per_sim_byte"] = perUnit(runS, c.BytesDelivered)
	vals["par.epochs"] = float64(c.Epochs)
	vals["par.ns_per_epoch"] = perUnit(runS, c.Epochs)
	vals["par.busy_frac"] = 0
	vals["harness.busy_frac"] = 0
	// busy_frac is CPU over the run phase divided by what the run's
	// worker budget (GOMAXPROCS, at most nproc) could have used.
	busy := mean(func(r rep) float64 { return r.runCPU.Seconds() }) / (float64(runtime.GOMAXPROCS(0)) * mean(func(r rep) float64 { return r.run.Seconds() }))
	if c.Epochs > 0 {
		vals["par.busy_frac"] = busy
	}
	if c.Cells > 0 {
		vals["harness.busy_frac"] = busy
	}
	vals["congestion.signals"] = float64(c.CCSignals)
	vals["congestion.blocks"] = float64(c.CCBlocks)
	vals["flow.flows_started"] = float64(c.FlowsStarted)
	vals["flow.flows_completed"] = float64(c.FlowsCompleted)
	vals["flow.ns_per_flow"] = perUnit(runS, c.FlowsCompleted)
	vals["flow.ns_per_sim_byte"] = perUnit(runS, c.FlowBytes)
	vals["harness.cells"] = float64(c.Cells)
	vals["harness.cells_na"] = float64(c.CellsNA)
	vals["runtime.gc_cycles"] = mean(func(r rep) float64 { return float64(r.gcCycles) })
	vals["runtime.gc_pause_s"] = mean(func(r rep) float64 { return r.gcPause.Seconds() })

	// The residual is the wall time outside every span; spans that
	// overlapped or outgrew the repetition would make it negative.
	addsUp := moduleSum == profTotal && profTotal > 0 && vals["bench.residual_s"] >= 0
	if !addsUp {
		fmt.Printf("module self CPU %v, profiled total %v, residual %gs\n", moduleSum, profTotal, vals["bench.residual_s"])
	}
	return addsUp
}

// clockTicks is USER_HZ, the unit of /proc/stat's CPU times.
const clockTicks = 100

// stealTicks is the CPU time the hypervisor has stolen from this VM, from
// the "steal" column of /proc/stat's "cpu" line; 0 where the kernel does
// not report it.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// perUnit is seconds per unit in nanoseconds, 0 when nothing was counted.
func perUnit(seconds float64, units int64) float64 {
	if units == 0 {
		return 0
	}
	return seconds * 1e9 / float64(units)
}

// median is the median of f over the repetitions.
func median(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
