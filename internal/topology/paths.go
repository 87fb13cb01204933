package topology

import "repro/internal/sim"

// Path is a sequence of switches from the source switch to the destination
// switch, inclusive of both. A path of length 1 means source and destination
// nodes share a switch.
type Path []SwitchID

// InterSwitchHops returns the number of switch-to-switch links traversed.
func (p Path) InterSwitchHops() int { return len(p) - 1 }

// intraPaths returns the minimal intra-group paths between two switches of
// the same group: the direct link when one exists, otherwise (Grid2D) the
// two row-then-column / column-then-row alternatives.
func (d *Dragonfly) intraPaths(a, b SwitchID) []Path {
	if a == b {
		return []Path{{a}}
	}
	if d.localAdjacent(a, b) {
		return []Path{{a, b}}
	}
	// Grid2D, different row and column.
	base := (int(a) / d.Cfg.SwitchesPerGroup) * d.Cfg.SwitchesPerGroup
	ia, ib := int(a)-base, int(b)-base
	ra, ca := ia/d.cols, ia%d.cols
	rb, cb := ib/d.cols, ib%d.cols
	m1 := SwitchID(base + ra*d.cols + cb) // along a's row to b's column
	m2 := SwitchID(base + rb*d.cols + ca) // along a's column to b's row
	return []Path{{a, m1, b}, {a, m2, b}}
}

// compose concatenates path segments, merging equal junction switches. It
// returns nil if the result revisits a switch (the caller filters).
// Paths are at most a handful of switches, so the revisit check is a
// linear scan rather than a map (this runs per routing decision).
func (d *Dragonfly) compose(segs ...Path) Path {
	var out Path
	for _, seg := range segs {
		for i, s := range seg {
			if len(out) > 0 && i == 0 && out[len(out)-1] == s {
				continue // shared junction
			}
			for _, prev := range out {
				if prev == s {
					return nil
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// MinimalPaths enumerates up to max minimal paths between the given
// switches. Within a group the candidates are the intra-group minimal
// paths (1 hop on a full mesh; up to 2 hops through shared intermediate
// switches on an Aries-style 2D grid). Across groups, a minimal path uses
// exactly one global link between the two groups, with minimal intra-group
// segments to and from the gateways; one candidate is produced per global
// link (these are the distinct minimal routes adaptive routing can weigh).
func (d *Dragonfly) MinimalPaths(src, dst SwitchID, max int) []Path {
	if max <= 0 {
		max = RouteCandidates
	}
	if src == dst {
		return []Path{{src}}
	}
	gs, gd := d.GroupOf(src), d.GroupOf(dst)
	if gs == gd {
		ps := d.intraPaths(src, dst)
		if len(ps) > max {
			ps = ps[:max]
		}
		return ps
	}
	var out []Path
	for _, id := range d.globalOut[gs][gd] {
		l := d.links[id]
		a, b := l.A, l.B
		if d.GroupOf(a) != gs {
			a, b = b, a
		}
		for _, p1 := range d.intraPaths(src, a) {
			for _, p2 := range d.intraPaths(b, dst) {
				if p := d.compose(p1, Path{a, b}, p2); p != nil {
					out = append(out, p)
					if len(out) >= max {
						return out
					}
				}
				break // one tail variant per head keeps candidates diverse
			}
		}
		if len(out) >= max {
			break
		}
	}
	if len(out) == 0 {
		// Degenerate overlaps (e.g. src is also the far gateway's grid
		// intermediate): fall back to any valid single-link composition.
		for _, id := range d.globalOut[gs][gd] {
			l := d.links[id]
			a, b := l.A, l.B
			if d.GroupOf(a) != gs {
				a, b = b, a
			}
			for _, p1 := range d.intraPaths(src, a) {
				for _, p2 := range d.intraPaths(b, dst) {
					if p := d.compose(p1, Path{a, b}, p2); p != nil {
						return []Path{p}
					}
				}
			}
		}
	}
	return out
}

// arenaIntraFirst is intraPaths(a, b)[0] — the first minimal intra-group
// path — built in the given PathArena (see interface.go): NonMinimalPaths
// runs once per routed packet, and the hot path must construct and discard
// candidate paths without allocating.
func (d *Dragonfly) arenaIntraFirst(ar *PathArena, a, b SwitchID) Path {
	if a == b {
		return ar.arenaPath(a)
	}
	if d.localAdjacent(a, b) {
		return ar.arenaPath(a, b)
	}
	// Grid2D, different row and column: along a's row to b's column.
	base := (int(a) / d.Cfg.SwitchesPerGroup) * d.Cfg.SwitchesPerGroup
	ia, ib := int(a)-base, int(b)-base
	m1 := SwitchID(base + (ia/d.cols)*d.cols + ib%d.cols)
	return ar.arenaPath(a, m1, b)
}

// NonMinimalPaths enumerates up to max non-minimal (Valiant-style)
// paths in the caller's arena. Within a group the detour is via a random
// third switch of the group; across groups it is via a random
// intermediate group. rng supplies the randomization; a nil rng yields
// deterministic (first-choice) detours. The returned paths live in the
// arena, which the next call on it reuses.
func (d *Dragonfly) NonMinimalPaths(a *PathArena, src, dst SwitchID, rng *sim.RNG, max int) []Path {
	if max <= 0 {
		max = 2
	}
	if src == dst {
		return nil
	}
	a.pathNodes = a.pathNodes[:0]
	out := a.outPaths[:0]
	defer func() { a.outPaths = out[:0] }() //simlint:allocok -- non-escaping open-coded defer; stays on the stack
	gs, gd := d.GroupOf(src), d.GroupOf(dst)
	if gs == gd {
		// Detour via another switch in the same group.
		base := int(gs) * d.Cfg.SwitchesPerGroup
		n := d.Cfg.SwitchesPerGroup
		if n <= 2 {
			return nil
		}
		start := 0
		if rng != nil {
			start = rng.Intn(n)
		}
		for i := 0; i < n && len(out) < max; i++ {
			mid := SwitchID(base + (start+i)%n)
			if mid == src || mid == dst {
				continue
			}
			p := a.arenaCompose(d.arenaIntraFirst(a, src, mid), d.arenaIntraFirst(a, mid, dst))
			if p != nil {
				out = append(out, p)
			}
		}
		return out
	}
	// Detour via an intermediate group: src group -> gi -> dst group.
	ng := d.Cfg.Groups
	if ng <= 2 {
		// No third group: detour within the source group to a different
		// gateway, then minimal.
		out = d.detourViaAltGateway(a, src, dst, rng, max, out)
		return out
	}
	start := 0
	if rng != nil {
		start = rng.Intn(ng)
	}
	for i := 0; i < ng && len(out) < max; i++ {
		gi := GroupID((start + i) % ng)
		if gi == gs || gi == gd {
			continue
		}
		p := d.pathViaGroup(a, src, dst, gi, rng)
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// pathViaGroup constructs src -> (gateway into gi) -> (gateway out of gi)
// -> dst, using one global link into gi and one out of gi, with minimal
// intra-group segments between the pieces.
func (d *Dragonfly) pathViaGroup(a *PathArena, src, dst SwitchID, gi GroupID, rng *sim.RNG) Path {
	gs, gd := d.GroupOf(src), d.GroupOf(dst)
	in := d.globalOut[gs][gi]
	outL := d.globalOut[gi][gd]
	if len(in) == 0 || len(outL) == 0 {
		return nil
	}
	//simlint:allocok -- called directly below and never escapes; inlined without a heap closure
	pick := func(ids []int) Link {
		i := 0
		if rng != nil {
			i = rng.Intn(len(ids))
		}
		return d.links[ids[i]]
	}
	l1 := pick(in)
	a1, b1 := l1.A, l1.B // a1 in gs, b1 in gi
	if d.GroupOf(a1) != gs {
		a1, b1 = b1, a1
	}
	l2 := pick(outL)
	a2, b2 := l2.A, l2.B // a2 in gi, b2 in gd
	if d.GroupOf(a2) != gi {
		a2, b2 = b2, a2
	}
	return a.arenaCompose(
		d.arenaIntraFirst(a, src, a1),
		a.arenaPath(a1, b1),
		d.arenaIntraFirst(a, b1, a2),
		a.arenaPath(a2, b2),
		d.arenaIntraFirst(a, b2, dst),
	)
}

// detourViaAltGateway handles the two-group case: route via a gateway
// switch other than the minimal one. out is the caller's arena-backed
// accumulator.
func (d *Dragonfly) detourViaAltGateway(ar *PathArena, src, dst SwitchID, rng *sim.RNG, max int, out []Path) []Path {
	gs, gd := d.GroupOf(src), d.GroupOf(dst)
	links := d.globalOut[gs][gd]
	if len(links) <= 1 {
		return out
	}
	start := 0
	if rng != nil {
		start = rng.Intn(len(links))
	}
	for i := 0; i < len(links) && len(out) < max; i++ {
		l := d.links[links[(start+i)%len(links)]]
		a, b := l.A, l.B
		if d.GroupOf(a) != gs {
			a, b = b, a
		}
		if a == src {
			continue // that is a minimal path, not a detour
		}
		p := ar.arenaCompose(d.arenaIntraFirst(ar, src, a), ar.arenaPath(a, b), d.arenaIntraFirst(ar, b, dst))
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}
