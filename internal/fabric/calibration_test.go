package fabric

// Tests of the delay-CC target calibration the fabric wires at build
// time (congestion.TargetCalibrator): the quiet-RTT oracle must track
// the topology, and a calibrated controller must not read a large
// topology's base RTT as congestion. The demonstration runs a fat-tree
// at 25 Gb/s, where store-and-forward serialization over a cross-pod
// path pushes the quiet RTT well past the fixed 8 us floor — at
// 100 Gb/s the floor happens to cover every quiet path, which is
// exactly the kind of tuning coincidence calibration removes.

import (
	"testing"

	"repro/internal/congestion"
	"repro/internal/sim"
	"repro/internal/topology"
)

// fatTree25G builds the comparison cluster at the given size, dialled
// down to 25 Gb/s links, with each NIC running a cc controller.
func fatTree25G(nodes int, cc congestion.Kind) *Network {
	p := FatTree100GProfile()
	p.CC = cc
	p.EdgeBits = 25e9
	p.FabricBits = 25e9
	return New(topology.MustBuild(topology.FatTreeFor(nodes)), p, 7)
}

// uncalibrated replaces every NIC's controller, after the fabric's
// build-time wiring has run, with a fresh one of the same kind behind
// the plain Controller interface, which hides CalibrateTarget: the
// controllers run with the fixed TargetRTT floor.
func uncalibrated(n *Network) *Network {
	for _, nic := range n.nics {
		nic.cc = struct{ congestion.Controller }{congestion.NewController(n.Prof.CC)}
	}
	return n
}

// streamQuiet runs a window-limited stream of 64 KiB messages from node
// 0 to the farthest node and returns the finish time plus the sender's
// controller for inspection.
func streamQuiet(t *testing.T, n *Network) (sim.Time, congestion.Controller) {
	t.Helper()
	dst := topology.NodeID(n.Topo.Nodes() - 1)
	const iters = 48
	done, posted := 0, 0
	var finish sim.Time
	var post func()
	post = func() {
		if posted >= iters {
			return
		}
		posted++
		n.Send(0, dst, 64*1024, SendOpts{OnDelivered: func(at sim.Time) {
			done++
			finish = at
			post()
		}})
	}
	for i := 0; i < 4; i++ {
		post()
	}
	n.Eng.RunWhile(func() bool { return done < iters })
	if done != iters {
		t.Fatalf("stream stalled at %d/%d messages", done, iters)
	}
	return finish, n.nics[0].cc
}

func TestQuietRTTTracksTopology(t *testing.T) {
	n := fatTree25G(1024, congestion.Delay)
	win := congestion.InitialWindow
	near := n.quietRTT(0, 1, win)                                // same switch
	far := n.quietRTT(0, topology.NodeID(n.Topo.Nodes()-1), win) // cross-pod
	if near >= far {
		t.Errorf("quiet RTT not monotone with distance: same-switch %v >= cross-pod %v", near, far)
	}
	// The cross-pod quiet RTT exceeds the fixed floor — the regime where
	// an uncalibrated delay controller misreads the topology as
	// congestion.
	if far <= congestion.TargetRTT {
		t.Errorf("cross-pod quiet RTT %v not above the fixed target %v; the fixture lost its point", far, congestion.TargetRTT)
	}
	// Determinism: the oracle is pure path shape, so asking twice (and on
	// a fresh identical network) gives identical answers.
	if again := n.quietRTT(0, topology.NodeID(n.Topo.Nodes()-1), win); again != far {
		t.Errorf("quiet RTT unstable: %v then %v", far, again)
	}
	if other := fatTree25G(1024, congestion.Delay).quietRTT(0, topology.NodeID(n.Topo.Nodes()-1), win); other != far {
		t.Errorf("quiet RTT differs across identical builds: %v vs %v", far, other)
	}
}

func TestDelayCCCalibrationStopsOverthrottle(t *testing.T) {
	// Calibrated controllers on the big tree: the raised per-destination
	// target absorbs the quiet base RTT, so a quiet stream sees no cuts
	// and keeps the full window.
	big := fatTree25G(1024, congestion.Delay)
	bigFinish, cc := streamQuiet(t, big)
	if s := cc.Stats().TotalSignals; s != 0 {
		t.Errorf("calibrated controller cut %d times on a quiet path, want 0", s)
	}
	dst := topology.NodeID(big.Topo.Nodes() - 1)
	if w := cc.Window(dst); w != congestion.InitialWindow {
		t.Errorf("calibrated window = %d, want the full %d", w, congestion.InitialWindow)
	}

	// The same stream on a small tree finishes in about the same time:
	// throughput is scale-invariant once the target tracks the topology.
	small := fatTree25G(64, congestion.Delay)
	smallFinish, _ := streamQuiet(t, small)
	if ratio := float64(bigFinish) / float64(smallFinish); ratio > 1.1 {
		t.Errorf("calibrated stream slows down %.2fx from 64 to 1024 nodes, want scale-invariance", ratio)
	}

	// An uncalibrated controller on the same big tree reads the base RTT
	// as standing queue: repeated spurious cuts collapse the window and
	// the quiet stream runs several times slower.
	uncal := uncalibrated(fatTree25G(1024, congestion.Delay))
	uncalFinish, uncc := streamQuiet(t, uncal)
	if s := uncc.Stats().TotalSignals; s == 0 {
		t.Fatalf("uncalibrated controller saw no delay cuts; the over-throttle regime is gone")
	}
	if w := uncc.Window(dst); w > congestion.InitialWindow/4 {
		t.Errorf("uncalibrated window = %d, expected collapse below %d", w, congestion.InitialWindow/4)
	}
	if ratio := float64(uncalFinish) / float64(bigFinish); ratio < 2 {
		t.Errorf("uncalibrated stream only %.2fx slower than calibrated, want >= 2x", ratio)
	}
}
