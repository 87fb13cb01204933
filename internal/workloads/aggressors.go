// Package workloads implements the traffic generators of the paper's
// evaluation (§III): the GPCNet-style congestion aggressors (incast for
// endpoint congestion, all-to-all for intermediate congestion, both with
// 128 KiB messages and optional bursts), the ember microbenchmark patterns
// (halo3d, sweep3d, incast), and proxies for the five HPC applications and
// the four Tailbench datacenter applications of Table I. One iteration of a
// victim completes when its last rank does (max across ranks); the harness
// repeats iterations until the 95% CI of the median is within 5%.
package workloads

import (
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/topology"
)

// AggressorMsgBytes is the congestor message size used throughout §III-A,
// chosen from characterization studies showing ~1e5-byte average messages.
const AggressorMsgBytes = 128 * 1024

// Aggressor is a continuously running congestion generator.
type Aggressor struct {
	stopped bool
}

// Stop makes the aggressor wind down: outstanding operations complete but
// nothing new is posted.
func (a *Aggressor) Stop() { a.stopped = true }

// incastGroupSize sets the many-to-one fan-in of each incast group. Groups
// are *strided* across the aggressor's node list (group g holds every G-th
// node), exactly so each group's flows traverse the whole fabric — GPCNet's
// congestor spreads its source/target pairs over the allocation the same
// way; contiguous groups would keep all congestion inside one switch
// neighbourhood.
const incastGroupSize = 16

// incastStride returns the strided node subsets for a job.
func incastStride(j *mpi.Job, groupSize int) [][]int {
	n := j.Size()
	g := (n + groupSize - 1) / groupSize
	if g < 1 {
		g = 1
	}
	sets := make([][]int, g)
	for r := 0; r < n; r++ {
		sets[r%g] = append(sets[r%g], r)
	}
	return sets
}

// StartIncast launches the endpoint-congestion aggressor: within each
// strided group, every rank repeatedly MPI_Puts msgBytes to the group's
// first rank, keeping `window` operations outstanding per rank.
func StartIncast(j *mpi.Job, msgBytes int64, window int) *Aggressor {
	if window <= 0 {
		window = 2
	}
	a := &Aggressor{}
	for _, set := range incastStride(j, incastGroupSize) {
		if len(set) < 2 {
			continue
		}
		target := set[0]
		for _, r := range set[1:] {
			r := r
			var post func()
			post = func() {
				if a.stopped {
					return
				}
				j.Put(r, target, msgBytes, func(sim.Time) { post() })
			}
			for w := 0; w < window; w++ {
				post()
			}
		}
	}
	return a
}

// alltoallGroupSize bounds the sub-communicator size of the intermediate
// congestor so one round stays tractable while still loading the fabric.
const alltoallGroupSize = 8

// StartAlltoall launches the intermediate-congestion aggressor: strided
// groups of ranks run back-to-back MPI_Sendrecv-based all-to-alls of
// msgBytes, so every group's exchanges cross the full breadth of the
// fabric.
func StartAlltoall(j *mpi.Job, msgBytes int64) *Aggressor {
	a := &Aggressor{}
	for _, set := range incastStride(j, alltoallGroupSize) {
		if len(set) < 2 {
			continue
		}
		sub := subJobOf(j, set)
		var round func()
		//simlint:allocok -- one closure per aggressor group at launch, reused across rounds
		round = func() {
			if a.stopped {
				return
			}
			sub.Alltoall(msgBytes, func(sim.Time) { round() }) //simlint:allocok -- one completion callback per all-to-all round (collective-level)
		}
		round()
	}
	return a
}

// burstRank is one source rank of the bursty incast: its own burst
// countdown plus the idle-gap event handler, allocated once per rank so
// the steady state schedules gap wakeups without any per-burst closures.
type burstRank struct {
	a         *Aggressor
	j         *mpi.Job
	r, target int
	msgBytes  int64
	burstSize int
	left      int
	gap       sim.Time
	onPut     func(sim.Time)
}

// OnEvent restarts the burst after the idle gap.
func (b *burstRank) OnEvent(_ *sim.Engine, _ *sim.Event) { b.step(b.burstSize) }

func (b *burstRank) step(left int) {
	if b.a.stopped {
		return
	}
	if left == 0 {
		b.j.Net.Eng.After(b.gap, b, 0, nil)
		return
	}
	b.left = left
	b.j.Put(b.r, b.target, b.msgBytes, b.onPut)
}

// StartBurstyIncast is the Fig. 12 congestor: bursts of burstSize messages
// per rank followed by an idle gap, repeated until stopped.
func StartBurstyIncast(j *mpi.Job, msgBytes int64, burstSize int, gap sim.Time) *Aggressor {
	if burstSize <= 0 {
		burstSize = 1
	}
	a := &Aggressor{}
	for _, set := range incastStride(j, incastGroupSize) {
		if len(set) < 2 {
			continue
		}
		target := set[0]
		for _, r := range set[1:] {
			b := &burstRank{
				a: a, j: j, r: r, target: target,
				msgBytes: msgBytes, burstSize: burstSize, gap: gap,
			}
			b.onPut = func(sim.Time) { b.step(b.left - 1) }
			b.step(burstSize)
		}
	}
	return a
}

// subJobOf views an arbitrary rank subset of j as its own communicator,
// one rank per selected rank's node, keeping j's stack, class, tag and
// Bulk marking.
func subJobOf(j *mpi.Job, ranks []int) *mpi.Job {
	nodes := make([]topology.NodeID, len(ranks))
	for i, r := range ranks {
		nodes[i] = j.Node(r)
	}
	return mpi.NewJob(j.Net, nodes, mpi.JobOpts{
		PPN: 1, Stack: j.Stack, Class: j.Class, Tag: j.Tag, Bulk: j.Bulk,
	})
}
