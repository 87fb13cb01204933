package workloads

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/topology"
)

func testJob(t testing.TB, n int) (*fabric.Network, *mpi.Job) {
	t.Helper()
	topo := topology.MustNew(topology.Config{
		Groups: 2, SwitchesPerGroup: 4, NodesPerSwitch: 8, GlobalPerPair: 4,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	net := fabric.New(topo, prof, 11)
	nodes := make([]topology.NodeID, n)
	for i := range nodes {
		nodes[i] = topology.NodeID(i)
	}
	return net, mpi.NewJob(net, nodes, mpi.JobOpts{Stack: mpi.MPI})
}

func TestDecompose3(t *testing.T) {
	cases := []int{1, 2, 4, 8, 12, 27, 64, 100, 128}
	for _, n := range cases {
		x, y, z := decompose3(n)
		if x*y*z != n {
			t.Errorf("decompose3(%d) = %d*%d*%d", n, x, y, z)
		}
		if x > y || y > z {
			t.Errorf("decompose3(%d) not ordered: %d,%d,%d", n, x, y, z)
		}
	}
}

func TestMicrobenchesComplete(t *testing.T) {
	benches := []Microbench{
		PingPongBench(8), AllreduceBench(1024), AlltoallBench(8),
		AlltoallBench(512), BarrierBench(), BroadcastBench(4096),
		Halo3DBench(128), Sweep3DBench(128), IncastBench(1024),
	}
	for _, b := range benches {
		net, j := testJob(t, 8)
		fin := false
		b.Run(j, func() { fin = true })
		net.Eng.Run()
		if !fin {
			t.Errorf("%s never completed", b.Label())
		}
	}
}

func TestFig9MicrobenchList(t *testing.T) {
	ms := Fig9Microbenches()
	if len(ms) != 39 {
		t.Errorf("Fig. 9 has %d microbenchmark columns, want 39", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		if names[m.Label()] {
			t.Errorf("duplicate column %q", m.Label())
		}
		names[m.Label()] = true
	}
}

func TestIncastAggressorGeneratesTraffic(t *testing.T) {
	net, j := testJob(t, 16)
	a := StartIncast(j, AggressorMsgBytes, 2)
	net.RunFor(500 * sim.Microsecond)
	if net.BytesDelivered == 0 {
		t.Fatal("incast aggressor moved no bytes")
	}
	before := net.BytesDelivered
	a.Stop()
	net.Eng.Run() // wind down
	net.RunFor(time1ms)
	after := net.BytesDelivered
	// After stopping, only in-flight residue lands.
	if after-before > before {
		t.Errorf("aggressor kept flooding after Stop: %d -> %d", before, after)
	}
}

const time1ms = sim.Millisecond

func TestAlltoallAggressor(t *testing.T) {
	net, j := testJob(t, 16)
	a := StartAlltoall(j, 4096)
	net.RunFor(500 * sim.Microsecond)
	if net.BytesDelivered == 0 {
		t.Fatal("alltoall aggressor moved no bytes")
	}
	a.Stop()
}

// TestBulkAlltoallRunsFluidAtHybrid: the all-to-all aggressor sends
// through per-group sub-communicators, which must inherit the job's Bulk
// tag so that at hybrid fidelity its 128 KiB transfers take the fluid
// path, as the incast aggressor's do.
func TestBulkAlltoallRunsFluidAtHybrid(t *testing.T) {
	net, j := testJob(t, 16)
	net.SetFidelity(fabric.FidelityHybrid)
	j.Bulk = true
	a := StartAlltoall(j, AggressorMsgBytes)
	net.RunFor(300 * sim.Microsecond)
	a.Stop()
	if net.FlowsStarted() == 0 {
		t.Fatal("Bulk all-to-all aggressor started no fluid flows at hybrid fidelity")
	}
}

func TestBurstyAggressorRespectsGap(t *testing.T) {
	// With an enormous gap, traffic after the first bursts should stop.
	net, j := testJob(t, 16)
	a := StartBurstyIncast(j, 4096, 2, sim.Second)
	net.RunFor(2 * sim.Millisecond)
	first := net.BytesDelivered
	if first == 0 {
		t.Fatal("no initial burst")
	}
	net.RunFor(5 * sim.Millisecond)
	if net.BytesDelivered != first {
		t.Error("traffic flowed during the gap")
	}
	a.Stop()
	// Dense bursts approximate persistent congestion.
	net2, j2 := testJob(t, 16)
	b := StartBurstyIncast(j2, 4096, 1000, sim.Microsecond)
	net2.RunFor(2 * sim.Millisecond)
	if net2.BytesDelivered <= first {
		t.Error("dense bursts moved less than sparse ones")
	}
	b.Stop()
}

func TestHPCAppsIterate(t *testing.T) {
	for _, app := range HPCApps() {
		net, j := testJob(t, 8)
		rng := sim.NewRNG(5)
		fin := false
		app.Iterate(j, rng, func() { fin = true })
		net.Eng.Run()
		if !fin {
			t.Errorf("%s iteration never completed", app.Name)
		}
	}
}

func TestDCAppsIterate(t *testing.T) {
	for _, app := range DCApps() {
		net, j := testJob(t, 2)
		rng := sim.NewRNG(6)
		fin := false
		start := net.Now()
		app.Iterate(j, rng, func() { fin = true })
		net.Eng.Run()
		if !fin {
			t.Fatalf("%s request never completed", app.Name)
		}
		elapsed := net.Now() - start
		if elapsed <= 0 {
			t.Errorf("%s elapsed = %v", app.Name, elapsed)
		}
	}
}

func TestTailbenchLatencyOrdering(t *testing.T) {
	// Silo (us-scale) must be far faster than Sphinx (s-scale): the
	// communication/computation ratios drive Fig. 8.
	measure := func(app App) sim.Time {
		net, j := testJob(t, 2)
		rng := sim.NewRNG(7)
		var total sim.Time
		for i := 0; i < 5; i++ {
			start := net.Now()
			fin := false
			app.Iterate(j, rng, func() { fin = true })
			net.Eng.RunWhile(func() bool { return !fin })
			total += net.Now() - start
		}
		return total / 5
	}
	silo, sphinx, xapian, img := measure(Silo()), measure(Sphinx()), measure(Xapian()), measure(ImgDNN())
	if !(silo < img && img < xapian && xapian < sphinx) {
		t.Errorf("latency ordering broken: silo=%v img=%v xapian=%v sphinx=%v",
			silo, img, xapian, sphinx)
	}
	// Rough absolute scales from Fig. 8 (isolated, Slingshot).
	if silo < 50*sim.Microsecond || silo > sim.Millisecond {
		t.Errorf("silo = %v, want ~0.2-0.5ms", silo)
	}
	if sphinx < 500*sim.Millisecond || sphinx > 4*sim.Second {
		t.Errorf("sphinx = %v, want ~1-3s", sphinx)
	}
}

func TestAppsListAndFlags(t *testing.T) {
	apps := Apps()
	if len(apps) != 9 {
		t.Fatalf("%d apps, want 9 (Table I)", len(apps))
	}
	pot := map[string]bool{"MILC": true, "HPCG": true}
	for _, a := range apps {
		if a.PowerOfTwoOnly != pot[a.Name] {
			t.Errorf("%s PowerOfTwoOnly = %v", a.Name, a.PowerOfTwoOnly)
		}
	}
	hpc := 0
	for _, a := range apps {
		if a.HPC {
			hpc++
		}
	}
	if hpc != 5 {
		t.Errorf("%d HPC apps, want 5", hpc)
	}
}
