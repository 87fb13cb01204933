package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// A workload prepares, from its seed, a function running one repetition.
type workload struct {
	name string
	unit string // what one units_per_s unit is
	prep func(seed uint64) (func(*rep) error, error)
}

// The workloads and why each is in the benchmark:
//
//   - grid-policy is the paper's evaluation shape: 108 cells, each
//     building, warming and measuring a small fabric. It loads harness,
//     mpi, workloads, per-cell builds, the classic sim engine and every
//     policy layer, and its output has a golden file.
//   - packet-sharded is the only workload on the sharded engine (sim/par):
//     one 4096-endpoint fabric on the per-packet path with congestion
//     control reacting to an incast, with a set-up small enough that the
//     throughput isolates per-packet cost.
//   - flow-scale is the largest addressable Slingshot system at flow
//     fidelity: set-up and memory dominate, the max-min solver does the
//     run, and the packet path stays idle.
var allWorkloads = []workload{
	{"grid-policy", "cells", prepareGrid},
	{"packet-sharded", "packets", preparePacket},
	{"flow-scale", "flows", prepareFlow},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// grid-policy: policy-compare at the configuration of its golden file.
const (
	goldenPath = "internal/harness/testdata/golden_policy-compare.json"
	goldenSeed = 7
	gridNodes  = 24
	gridJobs   = 2 // the host's cores
	// gridSetupBuilds is how many times a repetition builds one cell's
	// fabrics for its setup_s sample.
	gridSetupBuilds = 9
)

func gridOptions(seed uint64) harness.Options {
	return harness.Options{Nodes: gridNodes, MinIters: 1, MaxIters: 2, Seed: seed, Jobs: gridJobs}
}

func prepareGrid(seed uint64) (func(*rep) error, error) {
	exp := harness.Lookup("policy-compare")
	if exp == nil {
		return nil, errors.New("experiment policy-compare is not registered")
	}
	var want *results.Result
	if seed == goldenSeed {
		f, err := os.Open(filepath.FromSlash(goldenPath))
		if err != nil {
			return nil, fmt.Errorf("golden file (run from the repository root): %w", err)
		}
		want, err = results.DecodeJSON(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("golden file: %w", err)
		}
		if m := want.Meta; m.Seed != goldenSeed || m.Nodes != gridNodes {
			return nil, fmt.Errorf("golden file is for seed %d, %d nodes", m.Seed, m.Nodes)
		}
	}
	enc, err := results.NewEncoder("json")
	if err != nil {
		return nil, err
	}
	pow2Only := map[string]bool{}
	for _, a := range workloads.Apps() {
		pow2Only[a.Name] = a.PowerOfTwoOnly
	}
	opt := gridOptions(seed)
	var first []byte // the first repetition's output
	return func(r *rep) error {
		r.setup = gridSetup(r)
		var res *results.Result
		var err error
		cpu0 := cpuTime()
		r.run = r.timed(spanHarness, func() { res, err = exp.Run(opt) })
		r.runCPU = cpuTime() - cpu0
		if err != nil {
			return fmt.Errorf("policy-compare: %w", err)
		}
		res.Meta.Wall = 0 // host time, so repetitions compare byte for byte
		var out bytes.Buffer
		r.timed(spanEncode, func() { err = enc.Encode(&out, res) })
		if err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		r.timed(spanCheck, func() {
			var c gridCheck
			c, err = checkGrid(res, want, pow2Only)
			r.units, r.attempted, r.failed = c.cells, c.cells, c.failed
			r.sim = simCounts{Cells: c.cells, CellsNA: c.na}
			if first == nil {
				first = out.Bytes()
			} else if !bytes.Equal(out.Bytes(), first) {
				fmt.Println("grid-policy output differs from the first repetition's")
				r.failed++
			}
		})
		return err
	}, nil
}

// gridSetup builds the fabrics of one grid cell — each of the three
// topology backends at the grid's machine size, as policy-compare sizes
// them — gridSetupBuilds times, and returns the median build time. The
// grid's own builds happen inside its cells, where the benchmark cannot
// time them; their cost shows in the traced run's topology and fabric
// self CPU.
func gridSetup(r *rep) time.Duration {
	machine := 2 * gridNodes
	systems := []struct {
		b    topology.Builder
		prof fabric.Profile
	}{
		{harness.Shandy(machine).Topo, fabric.SlingshotProfile()},
		{topology.FatTreeFor(machine), fabric.FatTree100GProfile()},
		{topology.HyperXFor(machine), fabric.SlingshotProfile()},
	}
	times := make([]time.Duration, gridSetupBuilds)
	for i := range times {
		for _, s := range systems {
			var topo topology.Topology
			times[i] += r.timed(spanTopo, func() { topo = topology.MustBuild(s.b) })
			times[i] += r.timed(spanFabric, func() { fabric.New(topo, s.prof, uint64(i)) })
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2]
}

// packet-sharded: cross-group eager streams plus an incast on one
// 4096-endpoint Slingshot Dragonfly under the sharded engine.
var packetTopo = topology.Config{Groups: 16, SwitchesPerGroup: 16, NodesPerSwitch: 16, GlobalPerPair: 2}

const (
	packetDomains  = 2 // the host's cores
	packetMsgBytes = 32 << 10
	packetStreams  = 128 // cross-group streams
	packetWindow   = 4   // outstanding messages per stream
	incastSources  = 32
	incastWindow   = 2
	// packetTarget is the delivered-message count at which reposting
	// stops; in-flight messages then drain.
	packetTarget = 20000
)

func preparePacket(seed uint64) (func(*rep) error, error) {
	if err := packetTopo.Validate(); err != nil {
		return nil, err
	}
	perGroup := packetTopo.SwitchesPerGroup * packetTopo.NodesPerSwitch
	return func(r *rep) error {
		var topo *topology.Dragonfly
		r.timed(spanTopo, func() { topo = topology.MustNew(packetTopo) })
		var net *fabric.Network
		r.timed(spanFabric, func() { net = fabric.NewSharded(topo, fabric.SlingshotProfile(), seed, packetDomains) })
		r.setup = r.spans[spanTopo] + r.spans[spanFabric]

		pairs := newPairGen(seed, packetTopo.Groups, perGroup)
		var delivered, epochs int64
		var seen []int32 // deliveries per message, in send order
		var post func(src, dst topology.NodeID)
		post = func(src, dst topology.NodeID) {
			if delivered >= packetTarget {
				return
			}
			i := len(seen)
			seen = append(seen, 0)
			net.Send(src, dst, packetMsgBytes, fabric.SendOpts{
				NoRendezvous: true,
				OnDelivered: func(sim.Time) {
					seen[i]++
					delivered++
					post(src, dst)
				},
			})
		}
		cpu0 := cpuTime()
		r.run = r.timed(spanRun, func() {
			for s := 0; s < packetStreams; s++ {
				src, dst := pairs.crossGroup()
				for w := 0; w < packetWindow; w++ {
					post(src, dst)
				}
			}
			hot := pairs.any()
			for s := 0; s < incastSources; s++ {
				src := pairs.into(hot)
				for w := 0; w < incastWindow; w++ {
					post(src, hot)
				}
			}
			net.RunWhile(func() bool {
				epochs++
				return delivered < packetTarget
			})
			net.Run()
		})
		r.runCPU = cpuTime() - cpu0
		r.units = net.PacketsDelivered

		r.timed(spanCheck, func() {
			r.attempted = int64(len(seen))
			for _, n := range seen {
				if n != 1 {
					r.failed++
				}
			}
			if want := int64(len(seen)) * packetMsgBytes; net.BytesDelivered != want {
				fmt.Printf("packet-sharded: %d bytes delivered, %d sent\n", net.BytesDelivered, want)
				r.failed++
			}
			r.sim = fabricCounts(net, delivered)
			r.sim.Epochs = epochs
		})
		return nil
	}, nil
}

// flow-scale: bulk flows on the largest addressable Slingshot system at
// flow fidelity on the classic engine.
const (
	flowBytes = 16 << 20
	// flowStreams is the number of concurrent flows: half inside one
	// group, half across the bisection, each reposted on delivery.
	flowStreams = 4096
	// flowTarget is the completion count at which reposting stops.
	flowTarget = 6 * flowStreams
)

// maxSystem is the paper's largest addressable Slingshot system: 511
// groups of 32 fully connected switches with 16 endpoints each.
func maxSystem() topology.Config {
	s := topology.MaxSystem()
	return topology.Config{
		Groups: s.AddressableGroups, SwitchesPerGroup: s.SwitchesPerGroup,
		NodesPerSwitch: s.EndpointsPerSwitch, GlobalPerPair: 1,
	}
}

// flowStream reposts one bulk flow on each delivery through a callback
// bound once, so the load generator adds no allocation per flow.
type flowStream struct {
	net             *fabric.Network
	src, dst        topology.NodeID
	sent, delivered int64
	total           *int64 // deliveries over every stream
	cb              func(sim.Time)
}

func (s *flowStream) post() {
	if *s.total >= flowTarget {
		return
	}
	s.sent++
	s.net.Send(s.src, s.dst, flowBytes, fabric.SendOpts{Bulk: true, Recycle: true, OnDelivered: s.cb})
}

func (s *flowStream) onDelivered(sim.Time) {
	s.delivered++
	*s.total++
	s.post()
}

func prepareFlow(seed uint64) (func(*rep) error, error) {
	cfg := maxSystem()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	perGroup := cfg.SwitchesPerGroup * cfg.NodesPerSwitch
	return func(r *rep) error {
		var topo *topology.Dragonfly
		r.timed(spanTopo, func() { topo = topology.MustNew(cfg) })
		var net *fabric.Network
		r.timed(spanFabric, func() {
			net = fabric.New(topo, fabric.SlingshotProfile(), seed)
			net.SetFidelity(fabric.FidelityFlow)
		})
		r.setup = r.spans[spanTopo] + r.spans[spanFabric]

		pairs := newPairGen(seed, cfg.Groups, perGroup)
		var total int64
		streams := make([]*flowStream, flowStreams)
		for i := range streams {
			s := &flowStream{net: net, total: &total}
			if i%2 == 0 {
				s.src, s.dst = pairs.intraGroup()
			} else {
				s.src, s.dst = pairs.bisection()
			}
			s.cb = s.onDelivered
			streams[i] = s
		}
		cpu0 := cpuTime()
		r.run = r.timed(spanRun, func() {
			for _, s := range streams {
				s.post()
			}
			net.RunWhile(func() bool { return total < flowTarget })
			net.Run()
		})
		r.runCPU = cpuTime() - cpu0
		r.units = net.FlowsCompleted()

		r.timed(spanCheck, func() {
			r.attempted = net.FlowsStarted()
			for _, s := range streams {
				if s.delivered != s.sent {
					r.failed += max(s.sent-s.delivered, s.delivered-s.sent)
				}
			}
			if net.FlowsCompleted() != net.FlowsStarted() || total != net.FlowsStarted() {
				fmt.Printf("flow-scale: %d flows started, %d completed, %d delivered\n",
					net.FlowsStarted(), net.FlowsCompleted(), total)
				r.failed++
			}
			r.sim = fabricCounts(net, total)
			r.sim.FlowBytes = total * flowBytes
		})
		return nil
	}, nil
}

// fabricCounts reads a drained network's public counters.
func fabricCounts(net *fabric.Network, msgs int64) simCounts {
	c := simCounts{
		EndTimePs:      int64(net.Now()),
		MsgsCompleted:  msgs,
		PktsDelivered:  net.PacketsDelivered,
		BytesDelivered: net.BytesDelivered,
		Signals:        net.Signals,
		E2ERetries:     net.E2ERetries,
		Overdrafts:     net.Overdrafts,
		FlowsStarted:   net.FlowsStarted(),
		FlowsCompleted: net.FlowsCompleted(),
	}
	for i := 0; i < net.Topo.Nodes(); i++ {
		st := net.CC(topology.NodeID(i)).Stats()
		c.CCSignals += st.TotalSignals
		c.CCBlocks += st.TotalBlocks
	}
	return c
}
