// Package repro's top-level benchmarks regenerate every table and figure
// of the paper's evaluation at reduced scale — one benchmark per figure —
// plus ablation benchmarks for the design choices called out in DESIGN.md
// (endpoint congestion control, adaptive routing, Ethernet enhancements)
// and raw engine/fabric throughput benchmarks.
//
// Figure benchmarks are dominated by one full harness run per iteration
// (they report the figure's headline metric via b.ReportMetric); with the
// default -benchtime they execute once. Paper-scale runs go through
// cmd/slingshot-sim instead.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/congestion"
	"repro/internal/ethernet"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/results"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// figTable runs a registered experiment and returns its named table.
func figTable(b *testing.B, name string, opt harness.Options, table string) *results.Table {
	b.Helper()
	res, err := harness.Lookup(name).Run(opt)
	if err != nil {
		b.Fatal(err)
	}
	t := res.Table(table)
	if t == nil {
		b.Fatalf("%s: no %q table", name, table)
	}
	return t
}

// tableMax returns the largest number in the columns of t from column
// from on, over the rows whose column key holds want (every row when key
// is empty). N.A. cells are skipped.
func tableMax(t *results.Table, from int, key, want string) float64 {
	k := t.Col(key)
	worst := 0.0
	for _, row := range t.Rows {
		if key != "" && row[k].Str != want {
			continue
		}
		for _, v := range row[from:] {
			if x, ok := v.Float64(); ok && x > worst {
				worst = x
			}
		}
	}
	return worst
}

// heatmapImpacts is the first impact column of a heatmap table, after
// its three key columns.
const heatmapImpacts = 3

func BenchmarkFig2SwitchLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figTable(b, "fig2", harness.Options{Nodes: 32, MaxIters: 300}, "distribution")
		b.ReportMetric(t.Rows[0][t.Col("value_ns")].Num, "switch-ns") // the mean row
	}
}

func BenchmarkFig3Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := topology.MaxSystem()
		d := topology.MustNew(topology.ShandyConfig())
		b.ReportMetric(float64(spec.Endpoints), "max-endpoints")
		b.ReportMetric(float64(d.BisectionLinks()), "shandy-bisection-links")
	}
}

func BenchmarkFig4Distance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figTable(b, "fig4", harness.Options{Nodes: 32, MaxIters: 8}, "grid")
		b.ReportMetric(t.Rows[len(t.Rows)-1][t.Col("Gbps")].Num, "4MiB-Gbps")
	}
}

func BenchmarkFig5Stacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figTable(b, "fig5", harness.Options{Nodes: 32, MaxIters: 2}, "rtt")
		b.ReportMetric(t.Rows[0][t.Col("rtt2_us")].Num, "verbs-8B-us")
	}
}

func BenchmarkFig6Bisection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figTable(b, "fig6", harness.Options{Nodes: 32, Seed: 2}, "points")
		for _, row := range t.Rows {
			if row[t.Col("series")].Str == "bisection" && row[t.Col("size")].Str == "128KiB" {
				b.ReportMetric(row[t.Col("peak_frac")].Num, "bisection-peak-frac")
			}
		}
	}
}

func BenchmarkFig8Tailbench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figTable(b, "fig8", harness.Options{Nodes: 64, MaxIters: 10, Seed: 9}, "tail")
		b.ReportMetric(tableMax(t, t.Col("impact"), "", ""), "worst-impact")
	}
}

func BenchmarkFig9Heatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figTable(b, "fig9", harness.Options{
			Nodes: 32, MinIters: 2, MaxIters: 3, Seed: 11, Victims: harness.VictimsApps,
		}, "heatmap")
		b.ReportMetric(tableMax(t, heatmapImpacts, "system", "Aries (Crystal)"), "aries-max-impact")
		b.ReportMetric(tableMax(t, heatmapImpacts, "system", "Slingshot (Shandy)"), "slingshot-max-impact")
	}
}

func BenchmarkFig10Distributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figTable(b, "fig10", harness.Options{
			Nodes: 24, MinIters: 2, MaxIters: 3, Seed: 17, Victims: harness.VictimsApps, Panel: "A",
		}, "panel A")
		b.ReportMetric(tableMax(t, t.Col("max_C"), "", ""), "worst-impact")
	}
}

func BenchmarkFig11FullScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figTable(b, "fig11", harness.Options{
			Nodes: 32, MinIters: 2, MaxIters: 3, Seed: 5,
		}, "heatmap")
		b.ReportMetric(tableMax(t, heatmapImpacts, "", ""), "worst-impact")
	}
}

// BenchmarkFig12Bursty runs the registered grid: all three aggressor
// message sizes x four burst sizes x four gaps (48 cells).
func BenchmarkFig12Bursty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figTable(b, "fig12", harness.Options{
			Nodes: 24, MinIters: 3, MaxIters: 6, Seed: 13,
		}, "bursty")
		b.ReportMetric(tableMax(t, t.Col("impact"), "aggr_msg", "128KiB"), "128KiB-max-impact")
	}
}

func BenchmarkFig13TrafficClasses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figTable(b, "fig13", harness.Options{Nodes: 24, Seed: 3}, "steady-state")
		b.ReportMetric(t.Rows[0][t.Col("impact")].Num, "sameTC-impact")
		b.ReportMetric(t.Rows[1][t.Col("impact")].Num, "separateTC-impact")
	}
}

func BenchmarkFig14Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := figTable(b, "fig14", harness.Options{Nodes: 24, Seed: 3}, "overlap-share")
		b.ReportMetric(t.Rows[1][t.Col("job1_share")].Num, "tc1-share") // separate TCs
	}
}

func BenchmarkTableIApplications(b *testing.B) {
	topo := topology.MustNew(topology.ScaledConfig(16))
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	for i := 0; i < b.N; i++ {
		for _, app := range workloads.AppsScaled(0.01) {
			net := fabric.New(topo, prof, 1)
			nodes := make([]topology.NodeID, 8)
			for k := range nodes {
				nodes[k] = topology.NodeID(k)
			}
			j := mpi.NewJob(net, nodes, mpi.JobOpts{Stack: mpi.MPI})
			rng := sim.NewRNG(7)
			fin := false
			app.Iterate(j, rng, func() { fin = true })
			net.Eng.RunWhile(func() bool { return !fin })
			if !fin {
				b.Fatalf("%s did not finish", app.Name)
			}
		}
	}
}

// Ablation: how much of the victim protection comes from the congestion
// control algorithm (the DESIGN.md design-choice study). Everything is
// held constant — the Aries-style machine (grid groups, shallow buffers,
// noisy routing) where congestion trees can spread — and ONLY the endpoint
// CC algorithm changes. Expected ordering of victim impact:
// none >> ecn > slingshot.
func BenchmarkAblationCongestionControl(b *testing.B) {
	kinds := []struct {
		name string
		cc   congestion.Builder
	}{
		{"slingshot", congestion.BuilderFor(congestion.Slingshot)},
		{"ecn", congestion.BuilderFor(congestion.ECNLike)},
		{"none", congestion.BuilderFor(congestion.None)},
	}
	base := harness.Crystal(72)
	for _, k := range kinds {
		k := k
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := base
				sys.Prof.CC = k.cc
				r := harness.RunCell(harness.CellSpec{
					Sys: sys, TotalNodes: 48, VictimFrac: 0.5,
					Aggressor: harness.IncastAggressor, AggrPPN: 1,
					Seed: 7, MinIters: 3, MaxIters: 6,
				}, harness.BenchVictim(workloads.AllreduceBench(8)))
				b.ReportMetric(r.Impact, "victim-impact")
			}
		})
	}
}

// Ablation: adaptive routing versus minimal-only under cross-group load.
func BenchmarkAblationAdaptive(b *testing.B) {
	for _, adaptive := range []bool{true, false} {
		name := "minimal"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prof := fabric.SlingshotProfile()
				prof.SwitchJitter = false
				if !adaptive {
					prof.Routing = routing.MinimalOnly{}
				}
				topo := topology.MustNew(topology.Config{
					Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 1,
				})
				net := fabric.New(topo, prof, 3)
				done := 0
				for s := 0; s < 16; s++ {
					net.Send(topology.NodeID(s), topology.NodeID(16+s), 256*1024,
						fabric.SendOpts{OnDelivered: func(sim.Time) { done++ }})
				}
				net.Eng.RunWhile(func() bool { return done < 16 })
				b.ReportMetric(net.Now().Microseconds(), "completion-us")
			}
		})
	}
}

// Ablation: Slingshot's Ethernet enhancements (32 B min frame, headerless
// IP, no IPG, §II-F) versus standard framing, measured as 8-byte-message
// throughput across a single saturated global link. Host per-message costs
// are zeroed so the wire framing is the bottleneck (an 8 B RoCE frame is
// 84 wire bytes standard vs 52 enhanced).
func BenchmarkAblationEthernetMode(b *testing.B) {
	for _, enhanced := range []bool{true, false} {
		name := "standard"
		if enhanced {
			name = "enhanced"
		}
		mode := ethernet.Standard
		if enhanced {
			mode = ethernet.Enhanced
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prof := fabric.SlingshotProfile()
				prof.SwitchJitter = false
				prof.FabricMode = mode
				prof.HostGap = 0
				topo := topology.MustNew(topology.Config{
					Groups: 2, SwitchesPerGroup: 1, NodesPerSwitch: 8, GlobalPerPair: 1,
				})
				net := fabric.New(topo, prof, 4)
				stop := false
				var post func(src, dst topology.NodeID)
				post = func(src, dst topology.NodeID) {
					if stop {
						return
					}
					net.Send(src, dst, 8, fabric.SendOpts{OnDelivered: func(sim.Time) {
						post(src, dst)
					}})
				}
				for s := 0; s < 8; s++ {
					// Deep per-flow pipelines keep the shared global link
					// saturated so wire framing is the bottleneck.
					for w := 0; w < 96; w++ {
						post(topology.NodeID(s), topology.NodeID(8+s))
					}
				}
				net.RunFor(200 * sim.Microsecond)
				stop = true
				b.ReportMetric(float64(net.PacketsDelivered)/net.Now().Seconds()/1e6, "Mmsg-per-s")
			}
		})
	}
}

// BenchmarkSuite runs every hot-path row of internal/bench — the rows
// cmd/benchreport writes to the tracked BENCH_hotpath.json — as a
// sub-benchmark named after the row, so ns/op and allocs/op are per unit
// of that row (a delivered packet or flow, a routing decision, a build).
// Each sub-benchmark builds its row's fixture and runs the row's warm-up
// once; b.N's ramp re-runs only the unit loop. FlowScale1M builds a
// 1,048,576-endpoint fabric (~4 s, ~1.7 GiB heap); select rows by name
// to leave it out.
func BenchmarkSuite(b *testing.B) {
	for _, r := range bench.Suite() {
		var run func(n int)
		b.Run(r.Name, func(b *testing.B) {
			if run == nil {
				run = r.Fixture()
				run(r.Warm)
			}
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}

// engineTicker drives BenchmarkEngineThroughput through the closure-free
// Handler interface — the same dispatch path the fabric uses.
type engineTicker struct{ n, max int }

func (t *engineTicker) OnEvent(e *sim.Engine, _ *sim.Event) {
	t.n++
	if t.n < t.max {
		e.After(sim.Nanosecond, t, 0, nil)
	}
}

// Raw engine throughput: events scheduled and dispatched per second.
func BenchmarkEngineThroughput(b *testing.B) {
	e := sim.NewEngine()
	t := &engineTicker{max: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(0, t, 0, nil)
	e.Run()
}

// Raw fabric throughput: packets moved end to end per second of wall time.
func BenchmarkFabricPacketRate(b *testing.B) {
	topo := topology.MustNew(topology.Config{
		Groups: 2, SwitchesPerGroup: 2, NodesPerSwitch: 8, GlobalPerPair: 2,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	net := fabric.New(topo, prof, 5)
	b.ResetTimer()
	delivered := 0
	var post func(src, dst topology.NodeID)
	post = func(src, dst topology.NodeID) {
		net.Send(src, dst, 4096, fabric.SendOpts{OnDelivered: func(sim.Time) {
			delivered++
			if delivered < b.N {
				post(src, dst)
			}
		}})
	}
	for i := 0; i < 8 && i < b.N; i++ {
		post(topology.NodeID(i), topology.NodeID(16+i))
	}
	net.Eng.RunWhile(func() bool { return delivered < b.N })
}

// BenchmarkFig9GridParallel measures harness.RunGrid scaling across
// worker-pool widths on the fig9 quick-set grid. The grid's independent
// cells are embarrassingly parallel, so on a 4+ core machine jobs=NumCPU
// runs the same byte-identical grid >=2x faster than jobs=1 (compare the
// sub-benchmark wall times; on a single-core machine they coincide).
func BenchmarkFig9GridParallel(b *testing.B) {
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := figTable(b, "fig9", harness.Options{
					Nodes: 32, MinIters: 2, MaxIters: 3, Seed: 11, Jobs: jobs, Victims: harness.VictimsQuick,
				}, "heatmap")
				b.ReportMetric(tableMax(t, heatmapImpacts, "system", "Aries (Crystal)"), "aries-max-impact")
			}
		})
	}
}
