package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Job is a set of MPI ranks running on a subset of a network's nodes.
type Job struct {
	Net   *fabric.Network
	Nodes []topology.NodeID
	PPN   int
	Stack Stack
	Class int   // traffic class index of every message
	Tag   int64 // job label carried on every message
	// Bulk marks every transfer this job sends as steady background
	// traffic (fabric.SendOpts.Bulk) — a candidate for the flow-level
	// fast path on hybrid-fidelity networks. Ignored at packet fidelity.
	Bulk bool

	// opFree recycles sendOps across transfers. Safe without locking:
	// send() runs from engine callbacks, sendOp.OnEvent on the control
	// engine, and delivery callbacks are deferred to epoch barriers under
	// the sharded engine — all serialized with respect to each other.
	opFree []*sendOp
	// pmFree recycles planMsg records (plan.go) under the same rule.
	pmFree []*planMsg
}

// JobOpts configures a job.
type JobOpts struct {
	PPN   int
	Stack Stack
	Class int
	Tag   int64
	// Bulk marks the job's traffic for the hybrid flow-level fast path;
	// see Job.Bulk.
	Bulk bool
}

// NewJob creates a job over the given nodes. PPN ranks run on each node
// (rank r lives on nodes[r/PPN], the standard block mapping).
func NewJob(net *fabric.Network, nodes []topology.NodeID, opts JobOpts) *Job {
	if opts.PPN <= 0 {
		opts.PPN = 1
	}
	if len(nodes) == 0 {
		panic("mpi: job with no nodes")
	}
	return &Job{
		Net:   net,
		Nodes: nodes,
		PPN:   opts.PPN,
		Stack: opts.Stack,
		Class: opts.Class,
		Tag:   opts.Tag,
		Bulk:  opts.Bulk,
	}
}

// Size returns the number of ranks.
func (j *Job) Size() int { return len(j.Nodes) * j.PPN }

// Node returns the node hosting a rank.
func (j *Job) Node(rank int) topology.NodeID {
	if rank < 0 || rank >= j.Size() {
		panic(fmt.Sprintf("mpi: rank %d out of job of size %d", rank, j.Size()))
	}
	return j.Nodes[rank/j.PPN]
}

// Send transfers bytes from one rank to another; cb fires when the message
// is delivered (and past the receiver's software stack).
func (j *Job) Send(from, to int, bytes int64, cb func(at sim.Time)) {
	j.send(from, to, bytes, false, cb)
}

// Put is a one-sided RDMA write; completion semantics at the target are
// the same in this model (cb fires on remote delivery).
func (j *Job) Put(from, to int, bytes int64, cb func(at sim.Time)) {
	j.send(from, to, bytes, true, cb)
}

// sendOp is the pending state of one rank-to-rank transfer between the
// sender-overhead event firing and the fabric submit; it is also the
// event handler for that firing, so the send path allocates one small
// struct instead of a nest of closures — and that struct is free-listed
// on the Job, so steady-state transfers allocate nothing at all.
type sendOp struct {
	j        *Job
	src, dst topology.NodeID
	bytes    int64
	class    int
	noRendez bool
	recvOH   sim.Time
	cb       func(at sim.Time)
	// deliveredFn caches the s.delivered method value (one closure per
	// pooled op instead of one per transfer).
	deliveredFn func(sim.Time)
}

// newOp pops a recycled sendOp or mints one.
func (j *Job) newOp() *sendOp {
	if n := len(j.opFree); n > 0 {
		op := j.opFree[n-1]
		j.opFree = j.opFree[:n-1]
		return op
	}
	op := &sendOp{}
	op.deliveredFn = op.delivered
	return op
}

// freeOp returns a finished sendOp to the job's pool.
func (j *Job) freeOp(op *sendOp) {
	op.cb = nil
	j.opFree = append(j.opFree, op)
}

func (s *sendOp) OnEvent(_ *sim.Engine, _ *sim.Event) {
	opts := fabric.SendOpts{
		Class:        s.class,
		Tag:          s.j.Tag,
		NoRendezvous: s.noRendez,
		Bulk:         s.j.Bulk,
	}
	if s.cb != nil {
		opts.OnDelivered = s.deliveredFn
	}
	j := s.j
	j.Net.Send(s.src, s.dst, s.bytes, opts)
	// Without a delivery callback nothing references the op past the
	// submit; with one, delivered() recycles it.
	if s.cb == nil {
		j.freeOp(s)
	}
}

// delivered defers the caller's completion callback by the receiver-side
// software overhead, then recycles the op (the fabric fires OnDelivered
// exactly once per message).
func (s *sendOp) delivered(sim.Time) {
	j, cb := s.j, s.cb
	j.Net.Eng.After(s.recvOH, timeCB{}, 0, cb)
	j.freeOp(s)
}

// timeCB invokes the func(sim.Time) in Data with the fire time.
type timeCB struct{}

func (timeCB) OnEvent(e *sim.Engine, ev *sim.Event) {
	ev.Data.(func(sim.Time))(e.Now())
}

func (j *Job) send(from, to int, bytes int64, oneSided bool, cb func(at sim.Time)) {
	op := j.newOp()
	op.j = j
	op.src, op.dst = j.Node(from), j.Node(to)
	op.bytes = bytes
	op.class = j.Class
	op.noRendez = j.Stack.Sockets() || oneSided
	op.recvOH = j.Stack.RecvOverhead(bytes)
	op.cb = cb
	j.Net.Eng.After(j.Stack.SendOverhead(bytes), op, 0, nil)
}

// PingPong measures iters half-round-trips between two ranks and returns
// each iteration's RTT/2. The measurement protocol matches the paper: rank
// a sends, rank b replies on receipt.
func (j *Job) PingPong(a, b int, bytes int64, iters int, done func(rttHalf []sim.Time)) {
	results := make([]sim.Time, 0, iters)
	eng := j.Net.Eng
	var round func()
	round = func() {
		if len(results) >= iters {
			done(results)
			return
		}
		start := eng.Now()
		j.Send(a, b, bytes, func(sim.Time) {
			j.Send(b, a, bytes, func(at sim.Time) {
				results = append(results, (at-start)/2)
				round()
			})
		})
	}
	round()
}
