package fabric

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// shardNet builds a sharded 4-group Dragonfly (the quietNet fixture's
// topology) with the given worker budget.
func shardNet(t testing.TB, prof Profile, workers int) *Network {
	t.Helper()
	topo := topology.MustNew(topology.Config{
		Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 2,
	})
	return NewSharded(topo, prof, 1, workers)
}

// shardWorkload drives a mixed cross-domain workload (eager, rendezvous,
// self-sends, an incast) and returns its observable outcome: completion
// times per message plus the folded counters.
type shardOutcome struct {
	delivered []sim.Time
	acked     []sim.Time
	ctr       Counters
	end       sim.Time
}

func runShardWorkload(t testing.TB, n *Network) shardOutcome {
	t.Helper()
	nodes := n.Topo.Nodes()
	const msgs = 48
	out := shardOutcome{
		delivered: make([]sim.Time, msgs),
		acked:     make([]sim.Time, msgs),
	}
	for i := 0; i < msgs; i++ {
		i := i
		src := topology.NodeID((i * 7) % nodes)
		dst := topology.NodeID((i*13 + 5) % nodes)
		bytes := int64(8 << (uint(i) % 14)) // 8 B .. 64 KiB: eager through rendezvous
		if i%11 == 0 {
			dst = src // self-send: control-engine loopback
		}
		if i%5 == 0 {
			dst = topology.NodeID(nodes - 1 - int(src)%4) // mild incast
		}
		at := sim.Time(i%7) * 300 * sim.Nanosecond
		n.Eng.ScheduleFunc(at, func() {
			n.Send(src, dst, bytes, SendOpts{
				OnDelivered: func(t sim.Time) { out.delivered[i] = t },
				OnAcked:     func(t sim.Time) { out.acked[i] = t },
			})
		})
	}
	n.Run()
	out.ctr = n.Counters
	out.end = n.Now()
	return out
}

// TestShardedDeterminismAcrossWorkers pins the tentpole guarantee: the
// natural-unit decomposition is fixed by the topology, so one worker and
// many produce identical results — completion times, counters, clocks.
func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	base := runShardWorkload(t, shardNet(t, noJitter(SlingshotProfile()), 1))
	for _, workers := range []int{2, 4, 8} {
		got := runShardWorkload(t, shardNet(t, noJitter(SlingshotProfile()), workers))
		if got.ctr != base.ctr {
			t.Fatalf("workers=%d counters diverge: %+v vs %+v", workers, got.ctr, base.ctr)
		}
		if got.end != base.end {
			t.Fatalf("workers=%d end clock %v, want %v", workers, got.end, base.end)
		}
		for i := range base.delivered {
			if got.delivered[i] != base.delivered[i] || got.acked[i] != base.acked[i] {
				t.Fatalf("workers=%d msg %d completion (%v,%v), want (%v,%v)",
					workers, i, got.delivered[i], got.acked[i], base.delivered[i], base.acked[i])
			}
		}
	}
	for i, at := range base.delivered {
		if at == 0 || base.acked[i] == 0 {
			t.Fatalf("msg %d never completed (delivered=%v acked=%v)", i, at, base.acked[i])
		}
	}
	if base.ctr.PacketsDelivered == 0 {
		t.Fatal("counters never folded from the domains")
	}
}

// TestShardedDomainLayout checks the build puts every component in its
// partition's domain and classic mode collapses to exactly one.
func TestShardedDomainLayout(t *testing.T) {
	n := shardNet(t, noJitter(SlingshotProfile()), 4)
	if n.Domains() != 4 {
		t.Fatalf("Domains() = %d, want the 4 Dragonfly groups", n.Domains())
	}
	if n.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", n.Workers())
	}
	part := n.Topo.Partition()
	for _, s := range n.switches {
		if s.dom.id != part.Of[s.ID] {
			t.Fatalf("switch %d in domain %d, want %d", s.ID, s.dom.id, part.Of[s.ID])
		}
		for _, ports := range s.ports {
			for _, o := range ports {
				if o.dom != s.dom {
					t.Fatalf("switch %d port towards %d in wrong domain", s.ID, o.peerSw.ID)
				}
			}
		}
	}
	for _, nic := range n.nics {
		want := n.switches[n.Topo.SwitchOf(nic.ID)].dom
		if nic.dom != want || nic.inj.dom != want {
			t.Fatalf("nic %d domain mismatch", nic.ID)
		}
	}

	c := quietNet(t, noJitter(SlingshotProfile()))
	if c.Domains() != 1 || c.Workers() != 1 || c.par != nil {
		t.Fatalf("classic network: domains=%d workers=%d par=%v", c.Domains(), c.Workers(), c.par)
	}
	if c.doms[0].eng != c.Eng {
		t.Fatal("classic domain must share the network engine")
	}
}

// TestShardedDeferredCallbackClock: completion callbacks run at the epoch
// barrier, but on a control engine advanced to the callback's own
// timestamp — workload code reads the correct Now().
func TestShardedDeferredCallbackClock(t *testing.T) {
	n := shardNet(t, noJitter(SlingshotProfile()), 4)
	var deliveredAt, sawNow sim.Time
	n.Send(0, 63, 4096, SendOpts{OnDelivered: func(at sim.Time) {
		deliveredAt, sawNow = at, n.Now()
	}})
	n.Run()
	if deliveredAt == 0 {
		t.Fatal("cross-domain message never delivered")
	}
	if sawNow != deliveredAt {
		t.Fatalf("callback saw Now()=%v, want its own timestamp %v", sawNow, deliveredAt)
	}
}

// TestShardedRunUntilSettlesClocks: a bounded sharded run leaves every
// clock at the deadline, like Engine.RunUntil.
func TestShardedRunUntilSettlesClocks(t *testing.T) {
	n := shardNet(t, noJitter(SlingshotProfile()), 2)
	n.Send(0, 63, 4096, SendOpts{})
	const deadline = 100 * sim.Microsecond
	n.RunUntil(deadline)
	if n.Now() != deadline {
		t.Fatalf("control clock %v, want %v", n.Now(), deadline)
	}
	for i, d := range n.doms {
		if d.eng.Now() != deadline {
			t.Fatalf("domain %d clock %v, want %v", i, d.eng.Now(), deadline)
		}
	}
}

// TestShardedFreeListMigration: end-to-end retries carry lost packets
// back to their source domain, so packet structs migrate between domain
// free-lists — and every idle entry still drops its references.
func TestShardedFreeListMigration(t *testing.T) {
	prof := noJitter(SlingshotProfile())
	prof.FrameBER = 0.02
	prof.LLR = false
	prof.RetryTimeout = 20 * sim.Microsecond
	n := shardNet(t, prof, 4)
	done := 0
	const msgs = 50
	for i := 0; i < msgs; i++ {
		n.Send(topology.NodeID(i%8), topology.NodeID(56+i%8), 64*1024,
			SendOpts{OnDelivered: func(sim.Time) { done++ }})
	}
	n.Run()
	if done != msgs {
		t.Fatalf("delivered %d/%d despite end-to-end retry", done, msgs)
	}
	if n.FramesLost == 0 || n.E2ERetries < n.FramesLost {
		t.Fatalf("expected losses + retries: lost=%d e2e=%d", n.FramesLost, n.E2ERetries)
	}
	free := 0
	for _, d := range n.doms {
		free += len(d.pktFree)
		for i, p := range d.pktFree {
			if p.Msg != nil || p.Path != nil || p.inPort != nil {
				t.Fatalf("domain %d free-list entry %d retains references: %+v", d.id, i, p)
			}
		}
	}
	if free == 0 {
		t.Fatal("no packets recycled anywhere")
	}
}

// TestShardedSignalsCrossDomain: a cross-group incast raises Slingshot
// endpoint signals whose notifications cross domains back to the sources;
// the per-domain counters fold into the embedded block.
func TestShardedSignalsCrossDomain(t *testing.T) {
	n := shardNet(t, noJitter(SlingshotProfile()), 4)
	done := 0
	const senders = 12
	for i := 0; i < senders; i++ {
		src := topology.NodeID(i + i/4*12) // spread over groups 0-2
		n.Send(src, 63, 256*1024, SendOpts{OnDelivered: func(sim.Time) { done++ }})
	}
	n.RunWhile(func() bool { return done < senders })
	if done != senders {
		t.Fatalf("delivered %d/%d", done, senders)
	}
	if n.Signals == 0 {
		t.Error("cross-domain incast raised no endpoint signals")
	}
}
