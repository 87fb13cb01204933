// Package routing is the source-switch path-selection policy layer of the
// simulator. The paper's §II-C adaptive routing is one policy among
// several: the fabric asks the configured Policy for a path once per
// injected packet (at the packet's source switch), handing it the
// topology's candidate minimal paths, a read-only view of the egress-queue
// load, and the source switch's RNG stream.
//
// Contracts every Policy must honour:
//
//   - Retainable result: the returned Path is kept by the packet for its
//     whole flight. Candidates obtained from Topology.NonMinimalPaths live
//     in the context's reusable arena, so a policy that selects one MUST
//     copy it (the minimal candidates passed in are cached and shared —
//     returning one of those as-is is fine, mutating it is not).
//   - RNG-stream stability: all randomness comes from the rng argument, in
//     a fixed, input-determined draw order, so replays with the same seed
//     choose the same paths. Policies that need no randomness must not
//     touch rng at all (ECMPHash) — that is what makes them reproducible
//     independent of worker count and call interleaving.
//   - Zero steady-state allocations on the cached-minimal path: returning
//     one of the minimal candidates must not allocate. Only copying a
//     non-minimal arena path may.
//   - Stateless: a Policy is a plain value carrying no mutable state, so
//     one value serves every network and every simulation domain at once
//     (a sharded network calls its policy from all domains concurrently).
//     Everything a decision needs arrives in its arguments.
package routing

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Context carries the per-packet inputs of one routing decision.
type Context struct {
	// Src and Dst are the packet's source and destination switches
	// (distinct — the fabric short-circuits same-switch delivery).
	Src, Dst topology.SwitchID
	// SrcNode and DstNode are the endpoint nodes; together with FlowID
	// they identify the flow for hash-based policies.
	SrcNode, DstNode topology.NodeID
	// FlowID is the message ID: all packets of one message hash alike.
	FlowID int64
	// Class is the packet's traffic class.
	Class int
	// MinimalBias is the resolved preference for minimal paths: the
	// profile bias multiplied by the traffic class's own bias (§II-E),
	// already clamped to >= 1 by the fabric.
	MinimalBias float64
	// RouteNoise randomizes path-cost estimates (0 = perfect
	// information); it models the staleness of distributed congestion
	// estimates (§II-C).
	RouteNoise float64
	// Arena is the caller-owned path-construction scratch policies build
	// non-minimal candidates in (Topology.NonMinimalPaths); required. The
	// fabric passes the source switch's domain arena, so domains route
	// concurrently over the shared immutable topology.
	Arena *topology.PathArena
}

// LoadReader is the policy's read-only view of fabric congestion state:
// the request-queue depths adaptive routing weighs (§II-C), without
// exposing switch or port internals.
type LoadReader interface {
	// QueuedTo returns the queued bytes on the least-loaded egress port
	// from switch a towards the adjacent switch b (the fabric spreads
	// over parallel links below the path level, so the best port is the
	// load a path through a->b would see).
	QueuedTo(a, b topology.SwitchID) int64
}

// Policy chooses the switch-level path for one packet.
type Policy interface {
	// Name returns the policy's name (what ByName looks up).
	Name() string
	// Choose picks a path from ctx.Src to ctx.Dst. minimal holds the
	// topology's cached minimal candidates (never empty, never to be
	// mutated); load reads egress-queue depths; rng is the source
	// switch's stream (non-nil in the fabric; policies must tolerate nil
	// by falling back to first choices). The result must be safe to
	// retain — see the package contract.
	Choose(topo topology.Topology, ctx Context, minimal []topology.Path,
		load LoadReader, rng *sim.RNG) topology.Path
}

// policies is the single list of selectable policies ByName and Names
// derive from; a new policy is added here.
var policies = [...]Policy{MinimalOnly{}, SlingshotAdaptive{}, ECMPHash{}, ValiantUGAL{}}

// ByName returns the policy with the given name.
func ByName(name string) (Policy, error) {
	for _, p := range policies {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("routing: unknown policy %q (have %v)", name, Names())
}

// Names lists the policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(policies))
	for _, p := range policies {
		out = append(out, p.Name())
	}
	sort.Strings(out)
	return out
}

// HopCharge is the per-hop serialization charge of the path-cost
// estimate: one packet's worth of bytes per traversed link.
const HopCharge = 4096

// PathCost estimates a path's congestion the way §II-C describes: the
// queued bytes on the (least-loaded parallel) egress port of every hop —
// the local switch's figure is exact, remote ones arrive via the credit
// and ack piggyback channels — plus a per-hop serialization charge,
// multiplied by the non-minimal penalty factor.
func PathCost(load LoadReader, path topology.Path, penalty float64) float64 {
	cost := 0.0
	for i := 0; i+1 < len(path); i++ {
		cost += float64(load.QueuedTo(path[i], path[i+1])) + HopCharge
	}
	return cost * penalty
}
