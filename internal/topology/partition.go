package topology

import (
	"repro/internal/phy"
	"repro/internal/sim"
)

// Partition is a domain decomposition of a topology for conservative
// parallel simulation: every switch (and, through SwitchOf, every node)
// belongs to exactly one domain, and MinCutLatency bounds how soon an
// event crossing domains can take effect — the conservative lookahead.
//
// Each backend decomposes along its natural structural boundary, chosen
// so the cut carries only optical links (the slowest propagation in the
// system, hence the widest lookahead window):
//
//   - Dragonfly: one unit per group (the cut is the all-optical global
//     link mesh).
//   - Fat-tree: one unit per pod; core plane a folds into unit a mod
//     Pods (the cut is the optical agg–core wiring that leaves the pod).
//   - HyperX: one unit per dimension-0 row (rack-internal electrical
//     rows stay whole; the cut is the optical higher-dimension wiring).
//
// The natural units are the domains: a parallel fabric always simulates
// them and varies only its worker count, so results are bit-identical
// for every worker budget.
type Partition struct {
	// Domains is the domain count: the backend's natural unit count.
	Domains int
	// Of maps each switch to its domain, densely 0..Domains-1.
	Of []int
	// Cut lists the IDs of inter-switch links whose endpoints lie in
	// different domains, in link-discovery order.
	Cut []int
	// MinCutLatency is the propagation latency of the fastest cut link:
	// no event can cross domains sooner, so epochs of that width never
	// deliver into a peer's past. A cutless partition (a single domain)
	// reports the optical delay — any positive bound is vacuously safe.
	MinCutLatency sim.Time
}

// kindLatency is the propagation latency fabric assigns a link kind.
func kindLatency(k LinkKind) sim.Time {
	switch k {
	case EdgeLink:
		return phy.EdgeDelay()
	case LocalLink:
		return phy.CopperDelay()
	}
	return phy.OpticalDelay()
}

// finishPartition derives the cut and its latency bound from the
// per-switch unit assignment.
func finishPartition(links []Link, of []int, units int) Partition {
	p := Partition{Domains: units, Of: of, MinCutLatency: phy.OpticalDelay()}
	first := true
	for _, l := range links {
		if l.Kind == EdgeLink || of[l.A] == of[l.B] {
			continue
		}
		p.Cut = append(p.Cut, l.ID)
		if lat := kindLatency(l.Kind); first || lat < p.MinCutLatency {
			p.MinCutLatency = lat
			first = false
		}
	}
	return p
}

// Partition decomposes the Dragonfly into one domain per group.
func (d *Dragonfly) Partition() Partition {
	of := make([]int, d.sw)
	for s := range of {
		of[s] = s / d.Cfg.SwitchesPerGroup
	}
	return finishPartition(d.links, of, d.Cfg.Groups)
}

// Partition decomposes the fat-tree into one domain per pod, folding
// core plane a into pod a mod Pods so every switch has a home.
func (f *FatTree) Partition() Partition {
	units := f.Cfg.Pods
	of := make([]int, f.sw)
	for s := range of {
		switch {
		case s < f.edges:
			of[s] = s / f.Cfg.EdgePerPod
		case s < f.edges+f.aggs:
			of[s] = (s - f.edges) / f.Cfg.AggPerPod
		default:
			plane := (s - f.edges - f.aggs) / f.Cfg.CorePerAgg
			of[s] = plane % units
		}
	}
	return finishPartition(f.links, of, units)
}

// Partition decomposes the HyperX into one domain per dimension-0 row
// (the contiguous ID runs of length Dims[0]).
func (h *HyperX) Partition() Partition {
	row := h.Cfg.Dims[0]
	of := make([]int, h.sw)
	for s := range of {
		of[s] = s / row
	}
	return finishPartition(h.links, of, h.sw/row)
}
