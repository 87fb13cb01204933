package routing

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// MinimalOnly always takes the first minimal path — the deterministic
// baseline every comparison starts from.
type MinimalOnly struct{}

// Name returns "minimal".
func (MinimalOnly) Name() string { return "minimal" }

// Choose returns the first cached minimal path.
//
//simlint:hotpath
func (MinimalOnly) Choose(_ topology.Topology, _ Context, minimal []topology.Path,
	_ LoadReader, _ *sim.RNG) topology.Path {
	return minimal[0]
}

// SlingshotAdaptive is §II-C source-switch adaptive routing: score up to
// four minimal plus non-minimal candidate paths by the total depth of the
// request queues along them, biased towards minimal paths and perturbed
// by the profile's estimate noise, and pick the cheapest. This is the
// historical fabric.Network.choosePath body, moved verbatim: the RNG draw
// order (non-minimal enumeration first, then one noise draw per cost
// evaluation) is what keeps the pre-refactor goldens byte-identical.
type SlingshotAdaptive struct{}

// Name returns "adaptive".
func (SlingshotAdaptive) Name() string { return "adaptive" }

// Choose scores minimal and non-minimal candidates by queue depth.
//
//simlint:hotpath
func (SlingshotAdaptive) Choose(topo topology.Topology, ctx Context,
	minimal []topology.Path, load LoadReader, rng *sim.RNG) topology.Path {
	cands := minimal
	nmax := topology.RouteCandidates - len(cands)
	if nmax < 2 {
		nmax = 2
	}
	nonMin := topo.NonMinimalPaths(ctx.Arena, ctx.Src, ctx.Dst, rng, nmax)

	bias := ctx.MinimalBias
	if bias < 1 {
		bias = 1
	}
	best := cands[0]
	bestCost := PathCost(load, cands[0], costNoise(ctx.RouteNoise, rng))
	for _, c := range cands[1:] {
		if cost := PathCost(load, c, costNoise(ctx.RouteNoise, rng)); cost < bestCost {
			best, bestCost = c, cost
		}
	}
	fromArena := false
	for _, c := range nonMin {
		if cost := PathCost(load, c, bias*costNoise(ctx.RouteNoise, rng)); cost < bestCost {
			best, bestCost, fromArena = c, cost, true
		}
	}
	if fromArena {
		// Non-minimal candidates live in the context's reusable
		// path-construction arena and are overwritten by the next routing
		// decision; the packet keeps this path for its whole flight.
		best = append(topology.Path(nil), best...) //simlint:allocok -- arena copy only when a non-minimal path wins; the steady-state minimal path stays alloc-free
	}
	return best
}

// costNoise draws one multiplicative cost-estimate perturbation
// (§II-C estimate staleness): 1 when noise is off or no stream is
// available, else 1 + routeNoise·U[0,1). One draw per cost evaluation,
// in candidate order — the draw sequence the goldens pin.
func costNoise(routeNoise float64, rng *sim.RNG) float64 {
	if routeNoise <= 0 || rng == nil {
		return 1
	}
	return 1 + routeNoise*rng.Float64()
}

// ECMPHash is classical equal-cost multi-path: a deterministic flow hash
// over the cached minimal candidates, no congestion feedback, no detours —
// what the paper's RoCE fat-tree comparison systems run. All packets of
// one flow (source node, destination node, message) take the same path,
// and the choice touches no RNG, so the path sequence is identical for any
// worker count or call interleaving.
type ECMPHash struct{}

// Name returns "ecmp".
func (ECMPHash) Name() string { return "ecmp" }

// Choose hashes the flow identity over the minimal candidates.
//
//simlint:hotpath
func (ECMPHash) Choose(_ topology.Topology, ctx Context, minimal []topology.Path,
	_ LoadReader, _ *sim.RNG) topology.Path {
	if len(minimal) == 1 {
		return minimal[0]
	}
	h := flowHash(ctx.SrcNode, ctx.DstNode, ctx.FlowID, ctx.Class)
	return minimal[h%uint64(len(minimal))]
}

// flowHash mixes the flow identity with a SplitMix64 finalizer — the same
// mixer the sim RNG seeds with, giving well-spread buckets from sequential
// message IDs.
func flowHash(src, dst topology.NodeID, flow int64, class int) uint64 {
	x := uint64(src)<<40 ^ uint64(dst)<<20 ^ uint64(flow)<<4 ^ uint64(class)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ValiantUGAL routes via a random intermediate (Valiant's trick, the
// worst-case-traffic equalizer) with a UGAL-style load-aware fallback: the
// detour is only taken when its queue-depth cost — charged at the minimal
// bias, detours traverse roughly twice the links — still beats the best
// minimal path. On an idle fabric it degenerates to minimal routing (and
// allocates nothing); under adversarial load it spreads like Valiant.
type ValiantUGAL struct{}

// Name returns "valiant".
func (ValiantUGAL) Name() string { return "valiant" }

// ugalDetourBias is the default cost penalty charged to detours when the
// context carries no stronger minimal bias.
const ugalDetourBias = 2.0

// Choose compares the best minimal path against up to two random-
// intermediate detours by queue-depth cost.
//
//simlint:hotpath
func (ValiantUGAL) Choose(topo topology.Topology, ctx Context,
	minimal []topology.Path, load LoadReader, rng *sim.RNG) topology.Path {
	best := minimal[0]
	bestCost := PathCost(load, best, 1)
	for _, c := range minimal[1:] {
		if cost := PathCost(load, c, 1); cost < bestCost {
			best, bestCost = c, cost
		}
	}
	bias := ctx.MinimalBias
	if bias < ugalDetourBias {
		bias = ugalDetourBias
	}
	detours := topo.NonMinimalPaths(ctx.Arena, ctx.Src, ctx.Dst, rng, 2)
	fromArena := false
	for _, c := range detours {
		if cost := PathCost(load, c, bias); cost < bestCost {
			best, bestCost, fromArena = c, cost, true
		}
	}
	if fromArena {
		best = append(topology.Path(nil), best...) //simlint:allocok -- arena copy only when a detour wins; idle fabrics stay on the alloc-free minimal path
	}
	return best
}
