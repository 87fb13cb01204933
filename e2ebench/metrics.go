package main

import "fmt"

// metric is one reported figure: its name and unit exactly as
// BENCHMARK.json lists them.
type metric struct{ name, unit string }

// endToEnd lists the untraced run's metrics in output order. What one
// throughput unit is depends on the workload (workload.unit).
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"alloc_mib", "MiB"},
	{"mallocs", "count"},
}

// modules are the buckets a CPU profile sample's leaf frame is charged
// to (moduleOf): the repository's internal packages that run during a
// workload, the Go runtime, and everything else.
var modules = []string{
	"sim", "par", "fabric", "qos", "routing", "congestion", "topology", "flow",
	"harness", "mpi", "workloads", "placement", "stats", "results",
	"phy", "rosetta", "ethernet", "runtime", "other",
}

// perLayer lists the traced run's metrics in output order: every
// module's self CPU, the spans the benchmark records around its calls
// into the program, and the program's public counters. Everything is
// per repetition of the workload.
var perLayer = func() []metric {
	var out []metric
	for _, m := range modules {
		out = append(out, metric{m + ".self_cpu_s", "s"})
	}
	return append(out,
		metric{"sim.end_time_us", "us"},
		metric{"topology.build_s", "s"},
		metric{"fabric.build_s", "s"},
		metric{"fabric.run_s", "s"},
		metric{"fabric.ns_per_pkt", "ns"},
		metric{"fabric.ns_per_sim_byte", "ns/B"},
		metric{"fabric.msgs_completed", "count"},
		metric{"fabric.pkts_delivered", "count"},
		metric{"fabric.bytes_delivered", "B"},
		metric{"fabric.signals", "count"},
		metric{"fabric.e2e_retries", "count"},
		metric{"fabric.overdrafts", "count"},
		metric{"par.epochs", "count"},
		metric{"par.ns_per_epoch", "ns"},
		metric{"par.busy_frac", "ratio"},
		metric{"congestion.signals", "count"},
		metric{"congestion.blocks", "count"},
		metric{"flow.flows_started", "count"},
		metric{"flow.flows_completed", "count"},
		metric{"flow.ns_per_flow", "ns"},
		metric{"flow.ns_per_sim_byte", "ns/B"},
		metric{"harness.run_s", "s"},
		metric{"harness.busy_frac", "ratio"},
		metric{"harness.cells", "count"},
		metric{"harness.cells_na", "count"},
		metric{"results.encode_s", "s"},
		metric{"runtime.gc_cycles", "count"},
		metric{"runtime.gc_pause_s", "s"},
		metric{"bench.wall_s", "s"},
		metric{"bench.check_s", "s"},
		metric{"bench.residual_s", "s"},
		metric{"bench.profile_cpu_s", "s"},
		metric{"bench.profile_samples", "count"},
		metric{"bench.trace_overhead", "ratio"},
		metric{"bench.steal_frac", "ratio"},
		metric{"bench.ref_s", "s"},
	)
}()

// emit orders vals by the metric table into the result's metrics
// object. A table metric without a value is a bug in the workload code.
func emit(table []metric, vals map[string]float64) map[string]any {
	out := make(map[string]any, len(table))
	for _, m := range table {
		v, ok := vals[m.name]
		if !ok {
			panic(fmt.Sprintf("e2ebench: metric %s not measured", m.name))
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return out
}
