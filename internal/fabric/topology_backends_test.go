package fabric

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The fabric is built from the backend-neutral Topology contract: these
// tests run the conservation and path-validity properties the Dragonfly
// suite pins (conservation_test.go, reliability_test.go) on the fat-tree
// and HyperX backends.

// backendTopos returns small instances of the two new backends.
func backendTopos() map[string]topology.Topology {
	return map[string]topology.Topology{
		"fattree": topology.MustBuild(topology.FatTreeConfig{
			Pods: 2, EdgePerPod: 2, AggPerPod: 2, CorePerAgg: 2, NodesPerEdge: 4,
		}),
		"hyperx": topology.MustBuild(topology.HyperXConfig{
			Dims: []int{3, 3}, NodesPerSwitch: 2,
		}),
	}
}

// backendProfile returns the profile exercised on each backend: the
// paper's 100G RoCE profile on the fat-tree, Slingshot on the HyperX.
func backendProfile(kind string) Profile {
	var prof Profile
	if kind == "fattree" {
		prof = FatTree100GProfile()
		prof.Topo = nil // the test supplies its own small instance
	} else {
		prof = SlingshotProfile()
	}
	prof.SwitchJitter = false
	return prof
}

// TestProfileTopoBuilds: a profile that pairs its link model with a
// topology constructor builds a working network over that topology.
func TestProfileTopoBuilds(t *testing.T) {
	prof := FatTree100GProfile()
	prof.SwitchJitter = false
	n := New(topology.MustBuild(prof.Topo), prof, 3)
	if n.Topo.Kind() != "fattree" || n.Topo.Nodes() < 1024 {
		t.Fatalf("profile built %s with %d nodes", n.Topo.Kind(), n.Topo.Nodes())
	}
	done := false
	n.Send(0, topology.NodeID(n.Topo.Nodes()-1), 4096,
		SendOpts{OnDelivered: func(sim.Time) { done = true }})
	n.Eng.Run()
	if !done {
		t.Fatal("message not delivered on profile-built fat-tree")
	}
}

// TestBackendsAllTrafficDelivered: on a quiet fat-tree and HyperX, every
// message completes and delivered bytes match sent bytes exactly.
func TestBackendsAllTrafficDelivered(t *testing.T) {
	for kind, topo := range backendTopos() {
		t.Run(kind, func(t *testing.T) {
			n := New(topo, backendProfile(kind), 11)
			rng := sim.NewRNG(12)
			var sent int64
			done, total := 0, 0
			for i := 0; i < 150; i++ {
				src := topology.NodeID(rng.Intn(topo.Nodes()))
				dst := topology.NodeID(rng.Intn(topo.Nodes()))
				if src == dst {
					continue
				}
				bytes := int64(rng.Intn(48*1024) + 1)
				sent += bytes
				total++
				n.Send(src, dst, bytes, SendOpts{OnDelivered: func(sim.Time) { done++ }})
			}
			n.Eng.Run()
			if done != total {
				t.Fatalf("delivered %d/%d messages", done, total)
			}
			if n.BytesDelivered != sent {
				t.Errorf("BytesDelivered = %d, want %d", n.BytesDelivered, sent)
			}
		})
	}
}

// TestBackendsPacketPathsValid: every delivered packet carries a route the
// topology itself validates, from source switch to destination switch.
func TestBackendsPacketPathsValid(t *testing.T) {
	for kind, topo := range backendTopos() {
		t.Run(kind, func(t *testing.T) {
			n := New(topo, backendProfile(kind), 21)
			bad := 0
			n.Taps.OnPacketDelivered = func(p *Packet, _ sim.Time) {
				if !topo.Valid(p.Path) ||
					p.Path[0] != topo.SwitchOf(p.Msg.Src) ||
					p.Path[len(p.Path)-1] != topo.SwitchOf(p.Msg.Dst) {
					bad++
				}
			}
			rng := sim.NewRNG(22)
			done, total := 0, 0
			for i := 0; i < 150; i++ {
				src := topology.NodeID(rng.Intn(topo.Nodes()))
				dst := topology.NodeID(rng.Intn(topo.Nodes()))
				if src == dst {
					continue
				}
				total++
				n.Send(src, dst, int64(rng.Intn(32*1024)+1), SendOpts{
					OnDelivered: func(sim.Time) { done++ }})
			}
			n.Eng.Run()
			if done != total {
				t.Fatalf("delivered %d/%d", done, total)
			}
			if bad != 0 {
				t.Errorf("%d packets took invalid paths", bad)
			}
		})
	}
}

// TestBackendsAdaptiveSpreadsLoad ports the Dragonfly
// spreads-load property to the fat-tree and HyperX backends: with
// adaptive routing, simultaneous flows whose first-choice minimal paths
// collide divert to alternates, so total completion should not lose to
// minimal-only routing.
func TestBackendsAdaptiveSpreadsLoad(t *testing.T) {
	cases := map[string]struct {
		topo func() topology.Topology
		// flows returns colliding (src, dst) node pairs whose first-choice
		// minimal paths oversubscribe a shared fabric link.
		flows func(topo topology.Topology) [][2]topology.NodeID
	}{
		"fattree": {
			// Every cross-pod pair's first minimal path climbs the same
			// (agg 0, core 0) plane.
			topo: func() topology.Topology { return backendTopos()["fattree"] },
			flows: func(topo topology.Topology) [][2]topology.NodeID {
				var out [][2]topology.NodeID
				half := topo.Nodes() / 2 // pod 0 nodes, then pod 1 nodes
				for i := 0; i < half; i++ {
					out = append(out, [2]topology.NodeID{
						topology.NodeID(i), topology.NodeID(half + i)})
				}
				return out
			},
		},
		"hyperx": {
			// 3x3 with 4 nodes per switch: four 100G flows from row-0
			// switches 1 and 2 converge on the dim-0-first DOR link 0->6,
			// and four more from switches 0 and 1 on 2->8 — each 2x the
			// 200G fabric link. Every pair spans both dimensions, so a
			// second minimal path (dim-1 first) and Valiant detours exist
			// for adaptive routing to shift load onto.
			topo: func() topology.Topology {
				return topology.MustBuild(topology.HyperXConfig{
					Dims: []int{3, 3}, NodesPerSwitch: 4,
				})
			},
			flows: func(topo topology.Topology) [][2]topology.NodeID {
				var out [][2]topology.NodeID
				add := func(srcSw, dstSw topology.SwitchID, k int) {
					src, _ := topo.SwitchNodes(srcSw)
					dst, _ := topo.SwitchNodes(dstSw)
					out = append(out, [2]topology.NodeID{
						src + topology.NodeID(k), dst + topology.NodeID(k)})
				}
				for k := 0; k < 2; k++ {
					add(1, 6, k)   // (1,0)->(0,2): dim-0 first via 0
					add(2, 6, 2+k) // (2,0)->(0,2): dim-0 first via 0
					add(0, 8, k)   // (0,0)->(2,2): dim-0 first via 2
					add(1, 8, 2+k) // (1,0)->(2,2): dim-0 first via 2
				}
				return out
			},
		},
	}
	for kind, c := range cases {
		t.Run(kind, func(t *testing.T) {
			run := func(adaptive bool) sim.Time {
				topo := c.topo()
				prof := backendProfile(kind)
				if !adaptive {
					prof.Routing = routing.NewMinimalOnly
				}
				n := New(topo, prof, 3)
				done, total := 0, 0
				for _, f := range c.flows(topo) {
					total++
					n.Send(f[0], f[1], 256*1024, SendOpts{
						OnDelivered: func(sim.Time) { done++ }})
				}
				n.Eng.RunWhile(func() bool { return done < total })
				return n.Now()
			}
			adaptive := run(true)
			static := run(false)
			if adaptive > static {
				t.Errorf("adaptive (%v) slower than minimal-only (%v)", adaptive, static)
			}
		})
	}
}

// TestECMPPathsDeterministicAndInterleavingFree: the ECMP policy's choice
// is a pure function of the flow identity — the same seed yields the same
// per-flow path whatever order decisions are made in (the property that
// makes grid results independent of -jobs), and distinct flows spread
// over the equal-cost candidates.
func TestECMPPathsDeterministicAndInterleavingFree(t *testing.T) {
	build := func() *Network {
		topo := topology.MustBuild(topology.FatTreeConfig{
			Pods: 2, EdgePerPod: 2, AggPerPod: 2, CorePerAgg: 2, NodesPerEdge: 4,
		})
		prof := backendProfile("fattree")
		prof.Routing = routing.NewECMPHash
		return New(topo, prof, 9)
	}
	const flows = 64
	pathsOf := func(n *Network, reversed bool) [][]topology.SwitchID {
		out := make([][]topology.SwitchID, flows)
		for i := 0; i < flows; i++ {
			f := i
			if reversed {
				f = flows - 1 - i
			}
			p := n.ChoosePath(0, topology.NodeID(n.Topo.Nodes()-1), int64(f), 0)
			out[f] = append([]topology.SwitchID(nil), p...)
		}
		return out
	}
	a := pathsOf(build(), false)
	b := pathsOf(build(), true)
	distinct := map[string]bool{}
	for f := 0; f < flows; f++ {
		if len(a[f]) != len(b[f]) {
			t.Fatalf("flow %d: path depends on decision order", f)
		}
		key := ""
		for i := range a[f] {
			if a[f][i] != b[f][i] {
				t.Fatalf("flow %d: path depends on decision order (%v vs %v)", f, a[f], b[f])
			}
			key += string(rune(a[f][i])) + "."
		}
		distinct[key] = true
	}
	if len(distinct) < 2 {
		t.Errorf("%d flows hashed onto %d path(s); ECMP does not spread", flows, len(distinct))
	}
}

// TestBackendsLossyLinkConservation mirrors TestLossyLinkNoDoubleCounting
// on the new backends: with lossy links and end-to-end retries, every sent
// packet is delivered exactly once — no drops, no double counting.
func TestBackendsLossyLinkConservation(t *testing.T) {
	for kind, topo := range backendTopos() {
		t.Run(kind, func(t *testing.T) {
			prof := backendProfile(kind)
			prof.FrameBER = 0.02
			prof.LLR = false
			prof.RetryTimeout = 20 * sim.Microsecond
			n := New(topo, prof, 31)
			const msgs = 30
			perMsg := make([]int, msgs)
			var wantPkts int64
			nodes := topo.Nodes()
			for i := 0; i < msgs; i++ {
				m := n.Send(topology.NodeID(i%4), topology.NodeID(nodes-1-i%4), 64*1024,
					SendOpts{OnDelivered: func(at sim.Time) { perMsg[i]++ }})
				wantPkts += int64(m.numPackets)
			}
			n.Eng.Run()
			if n.E2ERetries == 0 {
				t.Fatal("test expects end-to-end retries at 2% loss")
			}
			for i, c := range perMsg {
				if c != 1 {
					t.Errorf("message %d OnDelivered fired %d times", i, c)
				}
			}
			if n.PacketsDelivered != wantPkts {
				t.Errorf("PacketsDelivered = %d, want exactly %d", n.PacketsDelivered, wantPkts)
			}
		})
	}
}
