package harness

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// fidelityNet builds one of the topo-compare systems at the given
// fidelity — the exact construction path RunGrid cells use, so the
// calibration measured here is the calibration the grids get.
func fidelityNet(t *testing.T, topoName, fid string, machineNodes int, seed uint64) *fabric.Network {
	t.Helper()
	sys, err := topoSystem(topoName, machineNodes)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fabric.ParseFidelity(fid)
	if err != nil {
		t.Fatal(err)
	}
	sys.Fidelity = f
	return sys.build(seed)
}

// xferTime measures the completion time of one bulk transfer.
func xferTime(net *fabric.Network, src, dst topology.NodeID, bytes int64) sim.Time {
	start := net.Now()
	fin := false
	var doneAt sim.Time
	net.Send(src, dst, bytes, fabric.SendOpts{
		Bulk: true,
		OnDelivered: func(at sim.Time) {
			fin = true
			doneAt = at
		},
	})
	net.RunWhile(func() bool { return !fin })
	return doneAt - start
}

// bisectTime measures the completion of `pairs` simultaneous bulk
// transfers across the machine's bisection (fig6's pattern: sources
// strided over the whole first half so every switch participates, each
// sending to its image in the second half) — the aggregate-bandwidth
// scenario where fair sharing across contended links decides the answer.
// Striding matters for fidelity: packing all sources onto one switch
// would make the experiment measure adaptive routing's non-minimal
// escape paths, which the minimal-path fluid model deliberately does not
// have (victim-style hotspots run packet-level in hybrid mode instead).
func bisectTime(net *fabric.Network, pairs int, bytes int64) sim.Time {
	n := net.Topo.Nodes()
	half := n / 2
	if pairs > half {
		pairs = half
	}
	stride := half / pairs
	start := net.Now()
	left := pairs
	var last sim.Time
	for i := 0; i < pairs; i++ {
		net.Send(topology.NodeID(i*stride), topology.NodeID(half+i*stride), bytes, fabric.SendOpts{
			Bulk: true,
			OnDelivered: func(at sim.Time) {
				left--
				if at > last {
					last = at
				}
			},
		})
	}
	net.RunWhile(func() bool { return left > 0 })
	return last - start
}

// relErr is |got-want| / want.
func relErr(got, want sim.Time) float64 {
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return d / float64(want)
}

// TestFlowCalibrationAcrossTopologies is the acceptance gate of the
// hybrid-fidelity design: on every topology backend, flow-level
// completion times must land within the asserted relative error of the
// packet engine for both fig2-shaped (single point-to-point transfer)
// and fig6-shaped (simultaneous bisection transfers) scenarios. The
// bounds are deliberately tight — they are what makes the 50x-faster
// fluid path trustworthy, and any fidelity.go latency-model regression
// fails here before it skews a grid.
func TestFlowCalibrationAcrossTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep runs packet-level bulk transfers")
	}
	cases := []struct {
		topo  string
		bytes int64
		pairs int // 0 = point-to-point (fig2-shaped), else bisection width (fig6-shaped)
		bound float64
	}{
		{"dragonfly", 128 << 10, 0, 0.10},
		{"dragonfly", 1 << 20, 0, 0.10},
		{"dragonfly", 8 << 20, 0, 0.10},
		{"dragonfly", 1 << 20, 4, 0.15},
		{"fattree", 128 << 10, 0, 0.10},
		{"fattree", 1 << 20, 0, 0.10},
		{"fattree", 1 << 20, 4, 0.15},
		{"hyperx", 128 << 10, 0, 0.10},
		{"hyperx", 1 << 20, 0, 0.10},
		{"hyperx", 1 << 20, 4, 0.15},
	}
	for _, tc := range cases {
		shape := "p2p"
		if tc.pairs > 0 {
			shape = fmt.Sprintf("bisect%d", tc.pairs)
		}
		t.Run(fmt.Sprintf("%s/%s/%dKiB", tc.topo, shape, tc.bytes>>10), func(t *testing.T) {
			measure := func(fid string) sim.Time {
				net := fidelityNet(t, tc.topo, fid, 32, 7)
				n := net.Topo.Nodes()
				if tc.pairs > 0 {
					return bisectTime(net, tc.pairs, tc.bytes)
				}
				return xferTime(net, 0, topology.NodeID(n/2), tc.bytes)
			}
			pkt := measure("packet")
			flw := measure("flow")
			if pkt <= 0 || flw <= 0 {
				t.Fatalf("degenerate completion times: packet %v, flow %v", pkt, flw)
			}
			if err := relErr(flw, pkt); err > tc.bound {
				t.Errorf("flow completion %v vs packet %v: relative error %.3f > bound %.2f",
					flw, pkt, err, tc.bound)
			} else {
				t.Logf("packet %v flow %v err %.3f (bound %.2f)", pkt, flw, err, tc.bound)
			}
		})
	}
}

// TestHybridVictimSlowdownOrdering pins that the §II-D victim-slowdown
// ordering the policy-compare golden asserts — ECN-style CC lets the
// incast hurt victims at least as much as Slingshot's hardware
// back-pressure does — survives the hybrid fidelity hand-off: aggressor
// bulk traffic runs flow-level while victims and CC-throttled pairs stay
// packet-level, and the contrast between the CC backends must not wash
// out.
func TestHybridVictimSlowdownOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid policy cells take ~1s")
	}
	grid := table(t, runExp(t, "policy-compare", Options{
		Nodes: 24, MinIters: 1, MaxIters: 2, Seed: 7, PPN: 4,
		Topo: "dragonfly", Routing: "adaptive", Fidelity: "hybrid",
	}), "policy grid")
	for _, row := range grid.Rows {
		for j, v := range row[heatmapKeys:] {
			if c, ok := v.Float64(); ok && c < 1 {
				t.Errorf("%s/%s/%s %s: impact %v below 1",
					row[0].Str, row[1].Str, row[2].Str, grid.Columns[heatmapKeys+j], c)
			}
		}
	}
	max := maxImpactBy(t, grid, "cc")
	for _, cc := range []string{"slingshot", "ecn"} {
		if max[cc] == 0 {
			t.Fatalf("no measurable cells for CC %q under hybrid fidelity", cc)
		}
	}
	if max["ecn"] < max["slingshot"] {
		t.Errorf("hybrid fidelity washed out the §II-D ordering: ECN max %.3f < Slingshot max %.3f",
			max["ecn"], max["slingshot"])
	}
}

// TestOptionsFidelityThreading: the string option reaches the built
// network, and RunCell on a flow-fidelity system still produces a
// finite, sane impact (the measurement protocol is fidelity-agnostic).
func TestOptionsFidelityThreading(t *testing.T) {
	for _, fid := range []string{"", "packet", "flow", "hybrid"} {
		opt := Options{Fidelity: fid}
		f := opt.fidelity()
		want := fid
		if want == "" {
			want = "packet"
		}
		if f.String() != want {
			t.Errorf("Options.Fidelity %q resolved to %v", fid, f)
		}
	}
	sys := Shandy(32)
	sys.Fidelity = fabric.FidelityHybrid
	if got := sys.build(3).Fidelity(); got != fabric.FidelityHybrid {
		t.Errorf("built network fidelity = %v, want hybrid", got)
	}
}
