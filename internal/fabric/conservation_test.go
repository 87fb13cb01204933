package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Conservation and validity properties over randomized traffic.

func TestPropertyAllTrafficDelivered(t *testing.T) {
	f := func(seed uint64, raw []uint16) bool {
		topo := topology.MustNew(topology.Config{
			Groups: 3, SwitchesPerGroup: 3, NodesPerSwitch: 4, GlobalPerPair: 2,
		})
		prof := SlingshotProfile()
		prof.SwitchJitter = false
		n := New(topo, prof, seed)
		var sent int64
		done := 0
		total := 0
		for i, r := range raw {
			if i >= 40 {
				break
			}
			src := topology.NodeID(int(r) % topo.Nodes())
			dst := topology.NodeID((int(r) / 7) % topo.Nodes())
			bytes := int64(r%5000) + 1
			if src == dst {
				continue
			}
			sent += bytes
			total++
			n.Send(src, dst, bytes, SendOpts{OnDelivered: func(sim.Time) { done++ }})
		}
		n.Eng.Run()
		return done == total && n.BytesDelivered == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPacketPathsValid(t *testing.T) {
	topo := topology.MustNew(topology.Config{
		Groups: 4, SwitchesPerGroup: 3, NodesPerSwitch: 4, GlobalPerPair: 1,
	})
	prof := SlingshotProfile()
	prof.SwitchJitter = false
	n := New(topo, prof, 77)
	bad := 0
	n.Taps.OnPacketDelivered = func(p *Packet, _ sim.Time) {
		// Every delivered packet carries a valid route from its source
		// switch to its destination switch.
		if !topo.Valid(p.Path) {
			bad++
			return
		}
		if p.Path[0] != topo.SwitchOf(p.Msg.Src) ||
			p.Path[len(p.Path)-1] != topo.SwitchOf(p.Msg.Dst) {
			bad++
		}
	}
	done := 0
	total := 0
	rng := sim.NewRNG(5)
	for i := 0; i < 200; i++ {
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
}

func TestPropertyCreditsBalance(t *testing.T) {
	// After the network drains, every switch-facing port's credits return
	// to the full input-buffer size: no credit leaks.
	topo := topology.MustNew(topology.Config{
		Groups: 2, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 2,
	})
	prof := SlingshotProfile()
	prof.SwitchJitter = false
	n := New(topo, prof, 9)
	done, total := 0, 0
	rng := sim.NewRNG(10)
	for i := 0; i < 150; i++ {
		src := topology.NodeID(rng.Intn(topo.Nodes()))
		dst := topology.NodeID(rng.Intn(topo.Nodes()))
		if src == dst {
			continue
		}
		total++
		n.Send(src, dst, int64(rng.Intn(64*1024)+1), SendOpts{
			OnDelivered: func(sim.Time) { done++ }})
	}
	n.Eng.Run()
	if done != total {
		t.Fatalf("delivered %d/%d", done, total)
	}
	check := func(o *outPort, where string) {
		if o.peerSw != nil && o.credits != prof.InputBufferBytes {
			t.Errorf("%s: credits = %d, want %d", where, o.credits, prof.InputBufferBytes)
		}
		if o.sched.Len() != 0 {
			t.Errorf("%s: %d packets stuck in queue", where, o.sched.Len())
		}
		if o.busy {
			t.Errorf("%s: port still busy after drain", where)
		}
	}
	for _, ports := range n.slotPorts {
		for _, o := range ports {
			check(o, "switch port")
		}
	}
	for _, o := range n.edgePorts {
		check(o, "edge port")
	}
	for _, nic := range n.nics {
		check(nic.inj, "injection port")
	}
}

func TestPropertyMessageCallbackExactlyOnce(t *testing.T) {
	f := func(seed uint64) bool {
		topo := topology.MustNew(topology.Config{
			Groups: 2, SwitchesPerGroup: 2, NodesPerSwitch: 4, GlobalPerPair: 1,
		})
		prof := SlingshotProfile()
		prof.SwitchJitter = false
		n := New(topo, prof, seed)
		counts := make([]int, 20)
		acks := make([]int, 20)
		rng := sim.NewRNG(seed + 1)
		for i := 0; i < 20; i++ {
			i := i
			src := topology.NodeID(rng.Intn(topo.Nodes()))
			dst := topology.NodeID(rng.Intn(topo.Nodes()))
			n.Send(src, dst, int64(rng.Intn(100*1024)), SendOpts{
				OnDelivered: func(sim.Time) { counts[i]++ },
				OnAcked:     func(sim.Time) { acks[i]++ },
			})
		}
		n.Eng.Run()
		for i := range counts {
			if counts[i] != 1 || acks[i] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
