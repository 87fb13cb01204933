package mpi

import (
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testNet(t testing.TB) *fabric.Network {
	t.Helper()
	topo := topology.MustNew(topology.Config{
		Groups: 2, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 2,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	return fabric.New(topo, prof, 1)
}

func jobOf(t testing.TB, net *fabric.Network, n, ppn int) *Job {
	t.Helper()
	nodes := make([]topology.NodeID, n)
	for i := range nodes {
		nodes[i] = topology.NodeID(i)
	}
	return NewJob(net, nodes, JobOpts{PPN: ppn, Stack: MPI})
}

func TestRankMapping(t *testing.T) {
	net := testNet(t)
	j := jobOf(t, net, 4, 2)
	if j.Size() != 8 {
		t.Fatalf("size = %d", j.Size())
	}
	if j.Node(0) != 0 || j.Node(1) != 0 || j.Node(2) != 1 || j.Node(7) != 3 {
		t.Error("block rank mapping broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range rank did not panic")
		}
	}()
	j.Node(8)
}

func TestSendDelivers(t *testing.T) {
	net := testNet(t)
	j := jobOf(t, net, 8, 1)
	var at sim.Time
	j.Send(0, 5, 4096, func(t sim.Time) { at = t })
	net.Eng.Run()
	if at == 0 {
		t.Fatal("send never completed")
	}
}

func TestSameNodeRanksUseLoopback(t *testing.T) {
	net := testNet(t)
	j := jobOf(t, net, 2, 4)
	var at sim.Time
	j.Send(0, 1, 1024, func(t sim.Time) { at = t }) // both on node 0
	net.Eng.Run()
	if at == 0 {
		t.Fatal("intra-node send never completed")
	}
	if at > 3*sim.Microsecond {
		t.Errorf("intra-node send took %v", at)
	}
}

func TestStackOrdering(t *testing.T) {
	// Fig. 5: verbs < libfabric < MPI << UDP < TCP at small sizes.
	var prev sim.Time
	for _, s := range Stacks() {
		net := testNet(t)
		j := NewJob(net, []topology.NodeID{0, 1}, JobOpts{Stack: s})
		var rtt sim.Time
		j.PingPong(0, 1, 8, 5, func(rs []sim.Time) { rtt = rs[len(rs)-1] })
		net.Eng.Run()
		if rtt == 0 {
			t.Fatalf("%v pingpong did not finish", s)
		}
		if rtt <= prev {
			t.Errorf("%v RTT/2 (%v) not above previous stack (%v)", s, rtt, prev)
		}
		prev = rtt
	}
}

func TestStackConvergenceAtLargeSizes(t *testing.T) {
	// Fig. 5: at 16 MiB all stacks are within ~2x (bandwidth-bound).
	get := func(s Stack) sim.Time {
		net := testNet(t)
		j := NewJob(net, []topology.NodeID{0, 1}, JobOpts{Stack: s})
		var rtt sim.Time
		j.PingPong(0, 1, 16*1024*1024, 1, func(rs []sim.Time) { rtt = rs[0] })
		net.Eng.Run()
		return rtt
	}
	v, tcp := get(Verbs), get(TCP)
	if ratio := float64(tcp) / float64(v); ratio > 2.5 {
		t.Errorf("TCP/verbs ratio at 16MiB = %.2f, want < 2.5", ratio)
	}
}

func TestBarrierCompletes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16} {
		net := testNet(t)
		j := jobOf(t, net, n, 1)
		fired := false
		j.Barrier(func(sim.Time) { fired = true })
		net.Eng.Run()
		if !fired {
			t.Fatalf("n=%d: barrier never completed", n)
		}
	}
}

func TestBarrierScalesLog(t *testing.T) {
	timeFor := func(n int) sim.Time {
		net := testNet(t)
		j := jobOf(t, net, n, 1)
		var at sim.Time
		j.Barrier(func(t sim.Time) { at = t })
		net.Eng.Run()
		return at
	}
	t4, t16 := timeFor(4), timeFor(16)
	// Dissemination: ceil(log2 n) rounds -> 16 ranks takes ~2x of 4, not 4x.
	if float64(t16)/float64(t4) > 3 {
		t.Errorf("barrier scaling t4=%v t16=%v", t4, t16)
	}
}

func TestAllreduceCompletesAllSizes(t *testing.T) {
	for _, n := range []int{2, 3, 7, 8, 16} {
		for _, bytes := range []int64{8, 1024, 128 * 1024} {
			net := testNet(t)
			j := jobOf(t, net, n, 1)
			fired := false
			j.Allreduce(bytes, func(sim.Time) { fired = true })
			net.Eng.Run()
			if !fired {
				t.Fatalf("allreduce n=%d bytes=%d never completed", n, bytes)
			}
		}
	}
}

func TestRecursiveDoublingPlanShape(t *testing.T) {
	// Power of two: log2(n) phases, each rank sends exactly once per phase.
	plan := recursiveDoublingPlan(8, 64)
	if len(plan) != 3 {
		t.Fatalf("phases = %d", len(plan))
	}
	for k, ph := range plan {
		if len(ph) != 8 {
			t.Errorf("phase %d has %d msgs", k, len(ph))
		}
		// Pairing is symmetric: r <-> r^2^k.
		for _, m := range ph {
			if m.to != m.from^(1<<k) {
				t.Errorf("phase %d: %d -> %d", k, m.from, m.to)
			}
		}
	}
	// Non power of two gets fold + unfold phases.
	plan = recursiveDoublingPlan(7, 64)
	if len(plan) != 1+2+1 {
		t.Errorf("n=7 phases = %d, want 4", len(plan))
	}
}

func TestRingPlanShape(t *testing.T) {
	plan := ringAllreducePlan(4, 4096)
	if len(plan) != 6 { // 2*(n-1)
		t.Fatalf("phases = %d", len(plan))
	}
	for _, ph := range plan {
		for _, m := range ph {
			if m.bytes != 1024 { // bytes/n
				t.Errorf("chunk = %d", m.bytes)
			}
			if m.to != (m.from+1)%4 {
				t.Errorf("ring neighbor broken: %d -> %d", m.from, m.to)
			}
		}
	}
}

func TestAlltoallAlgorithmSwitch(t *testing.T) {
	// <= 256 B: Bruck (log phases); > 256 B: pairwise (n-1 phases).
	if got := len(bruckPlan(16, 8)); got != 4 {
		t.Errorf("bruck phases = %d", got)
	}
	if got := len(pairwisePlan(16, 512)); got != 15 {
		t.Errorf("pairwise phases = %d", got)
	}
	// Total bytes shipped by Bruck exceed the raw data (log n staging),
	// pairwise ships exactly n*(n-1)*S.
	tot := func(plan []phase) int64 {
		var s int64
		for _, ph := range plan {
			for _, m := range ph {
				s += m.bytes
			}
		}
		return s
	}
	raw := int64(16 * 15 * 8)
	if tot(bruckPlan(16, 8)) <= raw {
		t.Error("bruck should ship more than raw bytes")
	}
	if got := tot(pairwisePlan(16, 8)); got != raw {
		t.Errorf("pairwise ships %d, want %d", got, raw)
	}
}

func TestAlltoallCompletes(t *testing.T) {
	for _, bytes := range []int64{8, 256, 257, 4096} {
		net := testNet(t)
		j := jobOf(t, net, 8, 1)
		fired := false
		j.Alltoall(bytes, func(sim.Time) { fired = true })
		net.Eng.Run()
		if !fired {
			t.Fatalf("alltoall %dB never completed", bytes)
		}
	}
}

func TestBcastReduceComplete(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		for root := 0; root < n; root += 3 {
			net := testNet(t)
			j := jobOf(t, net, n, 1)
			fired := 0
			j.Bcast(1024, root, func(sim.Time) { fired++ })
			net.Eng.Run()
			net2 := testNet(t)
			j2 := jobOf(t, net2, n, 1)
			j2.Reduce(1024, root, func(sim.Time) { fired++ })
			net2.Eng.Run()
			if fired != 2 {
				t.Fatalf("n=%d root=%d: fired=%d", n, root, fired)
			}
		}
	}
}

func TestBcastTreeCoverage(t *testing.T) {
	// Every non-root rank receives exactly once over the whole tree.
	f := func(rawN, rawRoot uint8) bool {
		n := int(rawN)%20 + 2
		root := int(rawRoot) % n
		recvs := make([]int, n)
		rel := func(r int) int { return (r - root + n) % n }
		for k := 1; k < n; k <<= 1 {
			for r := 0; r < n; r++ {
				if rel(r) < k && rel(r)+k < n {
					recvs[(rel(r)+k+root)%n]++
				}
			}
		}
		if recvs[root] != 0 {
			return false
		}
		for r := 0; r < n; r++ {
			if r != root && recvs[r] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSendrecv(t *testing.T) {
	net := testNet(t)
	j := jobOf(t, net, 4, 1)
	var at sim.Time
	j.Sendrecv(0, 3, 8192, func(t sim.Time) { at = t })
	net.Eng.Run()
	if at == 0 {
		t.Fatal("sendrecv never completed")
	}
}

func TestPingPongIterations(t *testing.T) {
	net := testNet(t)
	j := jobOf(t, net, 2, 1)
	var got []sim.Time
	j.PingPong(0, 1, 8, 10, func(rs []sim.Time) { got = rs })
	net.Eng.Run()
	if len(got) != 10 {
		t.Fatalf("got %d iterations", len(got))
	}
	for _, r := range got {
		if r < 500*sim.Nanosecond || r > 10*sim.Microsecond {
			t.Errorf("implausible RTT/2: %v", r)
		}
	}
}

func TestPutCompletes(t *testing.T) {
	net := testNet(t)
	j := jobOf(t, net, 4, 1)
	fired := false
	j.Put(0, 2, 128*1024, func(sim.Time) { fired = true })
	net.Eng.Run()
	if !fired {
		t.Fatal("put never completed")
	}
}

func TestStackStrings(t *testing.T) {
	names := map[Stack]string{Verbs: "ibverbs", Libfabric: "libfabric",
		MPI: "mpi", UDP: "udp", TCP: "tcp", Stack(99): "unknown"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
