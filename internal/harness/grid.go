package harness

import (
	"math"

	"repro/internal/mpi"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// Victim is one column of the congestion grids: a named workload whose
// slowdown under an aggressor is the measured quantity.
type Victim struct {
	Label          string
	PowerOfTwoOnly bool
	// BytesMoved estimates one iteration's traffic (caps iteration budgets
	// for enormous victims).
	BytesMoved int64
	Run        func(j *mpi.Job, rng *sim.RNG, done func())
}

// AppVictim wraps a Table I application.
func AppVictim(app workloads.App) Victim {
	return Victim{
		Label:          app.Name,
		PowerOfTwoOnly: app.PowerOfTwoOnly,
		BytesMoved:     1 << 20,
		Run:            app.Iterate,
	}
}

// BenchVictim wraps a microbenchmark.
func BenchVictim(b workloads.Microbench) Victim {
	return Victim{
		Label:      b.Label(),
		BytesMoved: b.Size,
		Run: func(j *mpi.Job, _ *sim.RNG, done func()) {
			b.Run(j, done)
		},
	}
}

// VictimSet selects the grid columns.
type VictimSet int

const (
	// VictimsQuick: the nine applications plus a representative
	// microbenchmark subset — the default for tests and benchmarks.
	VictimsQuick VictimSet = iota
	// VictimsApps: the nine Table I applications only.
	VictimsApps
	// VictimsFull: all 48 Fig. 9 columns (expensive; CLI use).
	VictimsFull
)

// dcServiceScale shrinks Tailbench service times in grid experiments so
// seconds-long queries stay simulable (see workloads.DCAppsScaled).
const dcServiceScale = 0.01

// Victims materializes a victim set.
func Victims(set VictimSet) []Victim {
	apps := workloads.AppsScaled(dcServiceScale)
	var out []Victim
	for _, a := range apps {
		out = append(out, AppVictim(a))
	}
	switch set {
	case VictimsApps:
		return out
	case VictimsQuick:
		for _, b := range []workloads.Microbench{
			workloads.PingPongBench(8), workloads.PingPongBench(128 * 1024),
			workloads.AllreduceBench(8), workloads.AllreduceBench(128 * 1024),
			workloads.AlltoallBench(8), workloads.AlltoallBench(128 * 1024),
			workloads.BarrierBench(), workloads.BroadcastBench(8),
			workloads.Halo3DBench(128), workloads.Sweep3DBench(128),
			workloads.IncastBench(8),
		} {
			out = append(out, BenchVictim(b))
		}
	case VictimsFull:
		for _, b := range workloads.Fig9Microbenches() {
			out = append(out, BenchVictim(b))
		}
	}
	return out
}

// AggressorKind selects the congestion pattern (§III-A).
type AggressorKind int

const (
	// IncastAggressor generates endpoint congestion (many-to-one Put).
	IncastAggressor AggressorKind = iota
	// AlltoallAggressor generates intermediate congestion.
	AlltoallAggressor
)

func (k AggressorKind) String() string {
	if k == IncastAggressor {
		return "incast"
	}
	return "all-to-all"
}

// MinCellNodes is the smallest machine a two-job experiment can split
// into jobs that both measure something: each job needs two nodes. A
// one-node victim's collectives never leave its node, and a one-node
// aggressor or bisection job loads no link.
const MinCellNodes = 4

// CellSpec fully describes one congestion-grid cell. TotalNodes must be
// at least MinCellNodes.
type CellSpec struct {
	Sys        System
	TotalNodes int
	VictimFrac float64
	Aggressor  AggressorKind
	Alloc      placement.Policy
	AggrPPN    int
	Seed       uint64
	MinIters   int
	MaxIters   int
	// Warmup lets the aggressor load the fabric before congested
	// measurement starts.
	Warmup sim.Time
}

// CellResult is one measured heatmap element.
type CellResult struct {
	Victim    string
	Aggressor string
	Frac      float64 // aggressor node fraction
	Impact    float64 // C = Tc/Ti (NaN when NA)
	NA        bool
	Isolated  float64 // mean isolated iteration time (us)
	Congested float64 // mean congested iteration time (us)
}

// isPow2 reports whether v is a power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// aggrFrac returns 1-vf rounded to micro precision: 1-0.9 is
// 0.09999999999999998 in float64, and the raw-precision JSON/CSV
// encoders would expose that artifact as a grouping key.
func aggrFrac(vf float64) float64 { return math.Round((1-vf)*1e6) / 1e6 }

// cellArena is per-worker scratch a RunGrid worker reuses across the
// cells it measures: the isolated/congested stats accumulators and the
// placement node buffer. Everything in it is reset (or fully rewritten)
// at the start of each cell, so arena reuse cannot leak state between
// cells — it only removes steady-state allocations from the harness side
// of the measurement loop.
type cellArena struct {
	iso, cong *stats.Sample
	nodes     []topology.NodeID
}

// samples returns the two reset measurement accumulators, growing them to
// at least capacity on first use (or after a larger cell).
func (a *cellArena) samples(capacity int) (iso, cong *stats.Sample) {
	if a.iso == nil || a.iso.Cap() < capacity {
		a.iso = stats.NewSample(capacity)
		a.cong = stats.NewSample(capacity)
	}
	a.iso.Reset()
	a.cong.Reset()
	return a.iso, a.cong
}

// nodeBuf returns a buffer with capacity for total node IDs.
func (a *cellArena) nodeBuf(total int) []topology.NodeID {
	if cap(a.nodes) < total {
		a.nodes = make([]topology.NodeID, total)
	}
	return a.nodes[:0]
}

// RunCell measures the congestion impact of one victim/aggressor pairing
// following §III-A: measure the victim isolated, start the aggressor, warm
// up, measure again, report C = Tc/Ti of the means.
func RunCell(spec CellSpec, v Victim) CellResult {
	return runCellArena(spec, v, &cellArena{})
}

// runCellArena is RunCell drawing its harness-side scratch from a
// (possibly shared-across-cells) arena.
func runCellArena(spec CellSpec, v Victim, arena *cellArena) CellResult {
	res := CellResult{
		Victim:    v.Label,
		Aggressor: spec.Aggressor.String(),
		Frac:      aggrFrac(spec.VictimFrac),
	}
	total := spec.TotalNodes
	nv := int(math.Round(float64(total) * spec.VictimFrac))
	if nv < 2 {
		nv = 2
	}
	if nv > total-2 {
		nv = total - 2
	}
	if v.PowerOfTwoOnly && !isPow2(nv) {
		res.NA = true
		res.Impact = math.NaN()
		return res
	}
	net := spec.Sys.build(spec.Seed)
	rng := sim.NewRNG(spec.Seed ^ 0x9e3779b9)
	victimNodes, aggrNodes := placement.SplitBuf(arena.nodeBuf(total), total, nv, spec.Alloc, rng.Split())

	vjob := mpi.NewJob(net, victimNodes, mpi.JobOpts{Stack: mpi.MPI, Tag: 1})
	minIters, maxIters := spec.MinIters, spec.MaxIters
	// Enormous victims get smaller budgets (the CI stopping rule still
	// applies below them).
	if traffic := v.BytesMoved * int64(len(victimNodes)) * int64(len(victimNodes)); traffic > 1<<30 {
		if maxIters > 3 {
			maxIters = 3
		}
		if minIters > 2 {
			minIters = 2
		}
	}

	iso, cong := arena.samples(maxIters)
	measureVictim(iso, vjob, v, rng.Split(), minIters, maxIters)
	res.Isolated = iso.Mean()

	// An aggressor job is always Bulk: it is exactly the steady traffic
	// the hybrid fluid fast path exists for (Bulk is read only at hybrid
	// fidelity). Victims stay untagged so their transfers keep
	// packet-level treatment.
	ajob := mpi.NewJob(net, aggrNodes, mpi.JobOpts{
		PPN: spec.AggrPPN, Stack: mpi.MPI, Tag: 2, Bulk: true,
	})
	var agg *workloads.Aggressor
	if spec.Aggressor == IncastAggressor {
		agg = workloads.StartIncast(ajob, workloads.AggressorMsgBytes, 2)
	} else {
		agg = workloads.StartAlltoall(ajob, workloads.AggressorMsgBytes)
	}
	warm := spec.Warmup
	if warm == 0 {
		warm = 300 * sim.Microsecond
	}
	net.RunFor(warm)

	measureVictim(cong, vjob, v, rng.Split(), minIters, maxIters)
	res.Congested = cong.Mean()
	agg.Stop()

	res.Impact = stats.CongestionImpact(res.Isolated, res.Congested)
	return res
}

// measureVictim runs the victim's measurement loop, accumulating
// iteration times into the caller-owned (typically arena-recycled) s.
func measureVictim(s *stats.Sample, j *mpi.Job, v Victim, rng *sim.RNG, minIters, maxIters int) {
	net := j.Net
	for i := 0; i < maxIters; i++ {
		start := net.Now()
		fin := false
		v.Run(j, rng, func() { fin = true })
		net.RunWhile(func() bool { return !fin })
		if !fin {
			break
		}
		s.Add((net.Now() - start).Microseconds())
		if i+1 >= minIters && s.Converged(0.05) {
			break
		}
	}
}
