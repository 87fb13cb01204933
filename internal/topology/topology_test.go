package topology

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func small() *Dragonfly {
	return MustNew(Config{Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 2})
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{},
		{Groups: 2, SwitchesPerGroup: 4, NodesPerSwitch: 4},                     // no global links
		{Groups: 2, SwitchesPerGroup: 40, NodesPerSwitch: 30, GlobalPerPair: 1}, // port budget
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
	good := []Config{
		ShandyConfig(), MalbecConfig(), CrystalConfig(),
		{Groups: 1, SwitchesPerGroup: 2, NodesPerSwitch: 4},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("config %d should be valid: %v", i, err)
		}
	}
}

func TestCounts(t *testing.T) {
	d := small()
	if d.Switches() != 16 {
		t.Errorf("switches = %d", d.Switches())
	}
	if d.Nodes() != 64 {
		t.Errorf("nodes = %d", d.Nodes())
	}
	// Links: 64 edge + 4 groups * C(4,2)=6 local + C(4,2)=6 pairs * 2 global.
	edge, local, global := 0, 0, 0
	for _, l := range d.Links() {
		switch l.Kind {
		case EdgeLink:
			edge++
		case LocalLink:
			local++
		case GlobalLink:
			global++
		}
	}
	if edge != 64 || local != 24 || global != 12 {
		t.Errorf("edge=%d local=%d global=%d", edge, local, global)
	}
}

func TestGroupAndSwitchMapping(t *testing.T) {
	d := small()
	if d.SwitchOf(0) != 0 || d.SwitchOf(3) != 0 || d.SwitchOf(4) != 1 {
		t.Error("SwitchOf mapping broken")
	}
	if d.GroupOf(0) != 0 || d.GroupOf(3) != 0 || d.GroupOf(4) != 1 {
		t.Error("GroupOf mapping broken")
	}
	if d.GroupOfNode(63) != 3 {
		t.Errorf("GroupOfNode(63) = %d", d.GroupOfNode(63))
	}
}

// linksBetween returns the IDs of the switch-to-switch links directly
// connecting a and b.
func linksBetween(t Topology, a, b SwitchID) []int {
	var ids []int
	for _, l := range t.Links() {
		if l.Kind != EdgeLink && (l.A == a && l.B == b || l.A == b && l.B == a) {
			ids = append(ids, l.ID)
		}
	}
	return ids
}

func TestIntraGroupFullMesh(t *testing.T) {
	d := small()
	for g := 0; g < 4; g++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				a := SwitchID(g*4 + i)
				b := SwitchID(g*4 + j)
				links := linksBetween(d, a, b)
				if i == j && len(links) != 0 {
					t.Errorf("self link on %d", a)
				}
				if i != j && len(links) != 1 {
					t.Errorf("switches %d,%d: %d links", a, b, len(links))
				}
			}
		}
	}
}

func TestInterGroupFullConnectivity(t *testing.T) {
	d := small()
	for g1 := GroupID(0); g1 < 4; g1++ {
		for g2 := GroupID(0); g2 < 4; g2++ {
			links := d.GlobalLinks(g1, g2)
			if g1 == g2 && links != nil {
				t.Errorf("self group links g%d", g1)
			}
			if g1 != g2 && len(links) != 2 {
				t.Errorf("groups %d,%d: %d links, want 2", g1, g2, len(links))
			}
		}
	}
}

func TestGlobalLinkBalance(t *testing.T) {
	// Round-robin assignment must not overload any switch.
	d := MustNew(ShandyConfig())
	perSwitch := make(map[SwitchID]int)
	for _, l := range d.Links() {
		if l.Kind == GlobalLink {
			perSwitch[l.A]++
			perSwitch[l.B]++
		}
	}
	// Shandy: 56 global links per group over 8 switches = 7 each.
	for s, n := range perSwitch {
		if n != 7 {
			t.Errorf("switch %d has %d global links, want 7", s, n)
		}
	}
}

func TestInterSwitchHops(t *testing.T) {
	d := small()
	if h := d.InterSwitchHops(0, 1); h != 0 {
		t.Errorf("same switch hops = %d", h)
	}
	if h := d.InterSwitchHops(0, 5); h != 1 {
		t.Errorf("same group hops = %d", h)
	}
	h := d.InterSwitchHops(0, 63)
	if h < 1 || h > 3 {
		t.Errorf("cross-group hops = %d", h)
	}
}

func TestMinimalPathsSameSwitch(t *testing.T) {
	d := small()
	ps := d.MinimalPaths(2, 2, 4)
	if len(ps) != 1 || len(ps[0]) != 1 {
		t.Fatalf("paths = %v", ps)
	}
}

func TestMinimalPathsSameGroup(t *testing.T) {
	d := small()
	ps := d.MinimalPaths(0, 3, 4)
	if len(ps) != 1 || ps[0].InterSwitchHops() != 1 {
		t.Fatalf("paths = %v", ps)
	}
	if !d.Valid(ps[0]) {
		t.Error("invalid path")
	}
}

func TestMinimalPathsCrossGroup(t *testing.T) {
	d := small()
	for src := SwitchID(0); src < 4; src++ {
		for dst := SwitchID(12); dst < 16; dst++ {
			ps := d.MinimalPaths(src, dst, 4)
			if len(ps) != 2 { // GlobalPerPair = 2
				t.Fatalf("src=%d dst=%d: %d minimal paths", src, dst, len(ps))
			}
			for _, p := range ps {
				if !d.Valid(p) {
					t.Errorf("invalid path %v", p)
				}
				if p.InterSwitchHops() > 3 {
					t.Errorf("minimal path too long: %v", p)
				}
				// Exactly one global hop.
				globals := 0
				for i := 1; i < len(p); i++ {
					for _, id := range linksBetween(d, p[i-1], p[i]) {
						if d.Links()[id].Kind == GlobalLink {
							globals++
							break
						}
					}
				}
				if globals != 1 {
					t.Errorf("path %v crosses %d global links", p, globals)
				}
			}
		}
	}
}

func TestDiameterProperty(t *testing.T) {
	// Property over all node pairs of a random-ish small system: minimal
	// paths exist, are valid, and never exceed 3 inter-switch hops.
	d := MustNew(Config{Groups: 5, SwitchesPerGroup: 3, NodesPerSwitch: 2, GlobalPerPair: 1})
	for a := 0; a < d.Nodes(); a++ {
		for b := 0; b < d.Nodes(); b++ {
			sa, sb := d.SwitchOf(NodeID(a)), d.SwitchOf(NodeID(b))
			ps := d.MinimalPaths(sa, sb, 4)
			if len(ps) == 0 {
				t.Fatalf("no path %d->%d", a, b)
			}
			for _, p := range ps {
				if !d.Valid(p) || p.InterSwitchHops() > 3 {
					t.Fatalf("bad minimal path %v for %d->%d", p, a, b)
				}
			}
		}
	}
}

func TestNonMinimalPaths(t *testing.T) {
	d := small()
	rng := sim.NewRNG(1)
	var ar PathArena
	// Same group: detours via third switch.
	ps := d.NonMinimalPaths(&ar, 0, 1, rng, 2)
	if len(ps) != 2 {
		t.Fatalf("same-group non-minimal: %v", ps)
	}
	for _, p := range ps {
		if !d.Valid(p) || p.InterSwitchHops() != 2 {
			t.Errorf("bad detour %v", p)
		}
	}
	// Cross group: via intermediate group.
	ps = d.NonMinimalPaths(&ar, 0, 15, rng, 2)
	if len(ps) == 0 {
		t.Fatal("no cross-group non-minimal paths")
	}
	for _, p := range ps {
		if !d.Valid(p) {
			t.Errorf("invalid path %v", p)
		}
		globals := 0
		for i := 1; i < len(p); i++ {
			kind := LocalLink
			for _, id := range linksBetween(d, p[i-1], p[i]) {
				kind = d.Links()[id].Kind
			}
			if kind == GlobalLink {
				globals++
			}
		}
		if globals != 2 {
			t.Errorf("valiant path %v crosses %d globals, want 2", p, globals)
		}
	}
}

func TestNonMinimalTwoGroups(t *testing.T) {
	d := MustNew(Config{Groups: 2, SwitchesPerGroup: 4, NodesPerSwitch: 2, GlobalPerPair: 4})
	var ar PathArena
	ps := d.NonMinimalPaths(&ar, 0, 7, sim.NewRNG(2), 3)
	for _, p := range ps {
		if !d.Valid(p) {
			t.Errorf("invalid alt-gateway path %v", p)
		}
	}
}

func TestGatewaysTo(t *testing.T) {
	d := MustNew(ShandyConfig())
	for g1 := GroupID(0); g1 < 8; g1++ {
		for g2 := GroupID(0); g2 < 8; g2++ {
			if g1 == g2 {
				continue
			}
			gws := d.GatewaysTo(g1, g2)
			if len(gws) == 0 {
				t.Fatalf("no gateways %d->%d", g1, g2)
			}
			for _, gw := range gws {
				if d.GroupOf(gw) != g1 {
					t.Errorf("gateway %d not in group %d", gw, g1)
				}
			}
		}
	}
}

func TestMaxSystemArithmetic(t *testing.T) {
	s := MaxSystem()
	if s.SwitchesPerGroup != 32 || s.LocalPorts != 31 || s.GlobalPorts != 17 {
		t.Errorf("spec = %+v", s)
	}
	if s.NodesPerGroup != 512 {
		t.Errorf("nodes/group = %d", s.NodesPerGroup)
	}
	if s.GlobalLinksPer != 544 {
		t.Errorf("global links/group = %d", s.GlobalLinksPer)
	}
	if s.Groups != 545 {
		t.Errorf("groups = %d", s.Groups)
	}
	if s.Endpoints != 279040 {
		t.Errorf("endpoints = %d", s.Endpoints)
	}
	if s.AddressableNodes != 261632 {
		t.Errorf("addressable nodes = %d", s.AddressableNodes)
	}
}

func TestShandyPeakBandwidths(t *testing.T) {
	d := MustNew(ShandyConfig())
	if n := d.BisectionLinks(); n != 128 {
		t.Errorf("bisection links = %d, want 4*4*8 = 128", n)
	}
	// 128 links * 200 Gb/s * 2 dirs = 51.2 Tb/s = 6.4 TB/s.
	if got := d.BisectionPeakBits(LinkBits); got != 51_200e9 {
		t.Errorf("bisection peak = %d bits/s", got)
	}
	// 8/7 * 224 links * 2 dirs * 200 Gb/s = 102.4 Tb/s = 12.8 TB/s.
	if got := d.AlltoallPeakBits(LinkBits); got != 102_400e9 {
		t.Errorf("alltoall peak = %d bits/s", got)
	}
}

func TestSystemConfigs(t *testing.T) {
	sh := MustNew(ShandyConfig())
	if sh.Nodes() != 1024 {
		t.Errorf("shandy nodes = %d", sh.Nodes())
	}
	ml := MustNew(MalbecConfig())
	if ml.Nodes() != 512 { // >= 484 (the paper's machine)
		t.Errorf("malbec nodes = %d", ml.Nodes())
	}
	cr := MustNew(CrystalConfig())
	if cr.Nodes() != 768 { // >= 698
		t.Errorf("crystal nodes = %d", cr.Nodes())
	}
}

func TestScaledConfig(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64, 128, 256, 512, 1024} {
		cfg := ScaledConfig(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("ScaledConfig(%d) invalid: %v", n, err)
			continue
		}
		d := MustNew(cfg)
		if d.Nodes() < n {
			t.Errorf("ScaledConfig(%d) covers only %d nodes", n, d.Nodes())
		}
	}
}

func TestScaledConfigProperty(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%2000) + 1
		cfg := ScaledConfig(n)
		if cfg.Validate() != nil {
			return false
		}
		return MustNew(cfg).Nodes() >= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLinkKindString(t *testing.T) {
	if EdgeLink.String() != "edge" || LocalLink.String() != "local" ||
		GlobalLink.String() != "global" || LinkKind(9).String() != "unknown" {
		t.Error("LinkKind strings wrong")
	}
}

func TestValidRejects(t *testing.T) {
	d := small()
	bad := []Path{
		{},
		{0, 0},         // repeat
		{0, 99},        // out of range
		{0, 5, 0},      // repeat
		{SwitchID(-1)}, // negative
	}
	for _, p := range bad {
		if d.Valid(p) {
			t.Errorf("Valid(%v) = true", p)
		}
	}
	// Non-adjacent: two switches in different groups with no direct link.
	found := false
	for s := SwitchID(4); s < 8 && !found; s++ {
		if len(linksBetween(d, 0, s)) == 0 {
			if d.Valid(Path{0, s}) {
				t.Errorf("Valid accepted non-adjacent hop 0-%d", s)
			}
			found = true
		}
	}
}

// TestLinkSlotBase pins the directed-link numbering every per-link table
// indexes by, on all three backends: the rows of consecutive switches
// tile 0..n-1 with one slot per neighbor, every slot names exactly one
// directed switch-to-switch link, and its offset within its switch's row
// is that link's NeighborIndex.
func TestLinkSlotBase(t *testing.T) {
	for _, topo := range []Topology{small(), smallFT(), smallHX()} {
		sw := topo.Switches()
		base := LinkSlotBase(topo)
		if len(base) != sw+1 {
			t.Fatalf("%s: %d bases for %d switches", topo.Kind(), len(base), sw)
		}
		next := 0
		for a := 0; a < sw; a++ {
			if int(base[a]) != next {
				t.Fatalf("%s: switch %d starts at slot %d, want %d", topo.Kind(), a, base[a], next)
			}
			next += topo.NeighborCount(SwitchID(a))
		}
		if int(base[sw]) != next {
			t.Fatalf("%s: %d slots, want %d", topo.Kind(), base[sw], next)
		}
		owner := make(map[[2]SwitchID]int32, next)
		a := 0
		for slot := int32(0); slot < base[sw]; slot++ {
			for slot >= base[a+1] {
				a++
			}
			i := int(slot - base[a])
			b := topo.Neighbors(SwitchID(a))[i]
			if got := topo.NeighborIndex(SwitchID(a), b); got != i {
				t.Fatalf("%s: slot %d is %d->%d at offset %d, but NeighborIndex = %d",
					topo.Kind(), slot, a, b, i, got)
			}
			key := [2]SwitchID{SwitchID(a), b}
			if prev, dup := owner[key]; dup {
				t.Fatalf("%s: link %d->%d has slots %d and %d", topo.Kind(), a, b, prev, slot)
			}
			owner[key] = slot
		}
		for _, l := range topo.Links() {
			if l.Kind == EdgeLink {
				continue
			}
			for _, key := range [][2]SwitchID{{l.A, l.B}, {l.B, l.A}} {
				if _, ok := owner[key]; !ok {
					t.Fatalf("%s: link %d (%d->%d) has no slot", topo.Kind(), l.ID, key[0], key[1])
				}
			}
		}
	}
}
