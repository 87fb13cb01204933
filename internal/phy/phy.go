// Package phy models the physical layer of §II-A and §II-F: SerDes lanes
// and lane degrade, forward error correction (FEC) latency, cable
// propagation delay, and the delay of a link-level reliability (LLR)
// retransmit.
package phy

import (
	"repro/internal/sim"
)

// Lane parameters of the Rosetta SerDes (§II-A): four lanes of 56 Gb/s
// PAM-4 signalling per port, of which 50 Gb/s survive FEC overhead.
const (
	LanesPerPort       = 4
	LaneRawBits  int64 = 56e9
	LaneDataBits int64 = 50e9
	// PortBits is the usable per-direction port bandwidth: 4 x 50 = 200 Gb/s.
	PortBits int64 = LanesPerPort * LaneDataBits
)

// Propagation delay: ~5 ns/m in both copper and fibre (the paper's cables:
// copper up to 2.6 m inside a group, optical up to 100 m between groups).
const (
	NsPerMeter       = 5
	CopperMeters     = 2.6
	OpticalMeters    = 30.0 // typical inter-group run; max is 100 m
	EdgeCopperMeters = 2.0
)

// CopperDelay is the one-way propagation delay of an intra-group cable.
func CopperDelay() sim.Time {
	return sim.FromNanoseconds(CopperMeters * NsPerMeter)
}

// OpticalDelay is the one-way propagation delay of an inter-group cable.
func OpticalDelay() sim.Time {
	return sim.FromNanoseconds(OpticalMeters * NsPerMeter)
}

// EdgeDelay is the one-way propagation delay of a NIC-to-switch cable.
func EdgeDelay() sim.Time {
	return sim.FromNanoseconds(EdgeCopperMeters * NsPerMeter)
}

// FECLatency is the low-latency FEC encode+decode time added per link
// traversal (the 25G consortium low-latency RS-FEC is ~30-60 ns per
// direction at 50G lane rate; we charge a combined fixed cost).
const FECLatency = 30 * sim.Nanosecond

// LLRDelay is the time a link-level retry adds before the frame is
// replayed: one reverse-direction notification plus the replay (§II-F).
const LLRDelay = 300 * sim.Nanosecond

// Link is the lane state of one physical link direction. It carries no
// queueing and no loss — the fabric's egress port owns both and draws
// frame errors itself — only the lane count that sets the usable
// bandwidth.
type Link struct {
	Lanes int // active lanes (lane degrade reduces this)
}

// NewLink returns a healthy 4-lane link.
func NewLink() *Link {
	return &Link{Lanes: LanesPerPort}
}

// Bandwidth returns the current usable bandwidth in bits/s, accounting for
// degraded lanes.
func (l *Link) Bandwidth() int64 {
	return int64(l.Lanes) * LaneDataBits
}

// DegradeLane removes one lane (the §II-F "lanes degrade" mechanism that
// tolerates hard lane failures by running the port at reduced width).
// It reports whether the link is still usable.
func (l *Link) DegradeLane() bool {
	if l.Lanes > 0 {
		l.Lanes--
	}
	return l.Lanes > 0
}

// RestoreLanes returns the link to full width (cable replaced).
func (l *Link) RestoreLanes() { l.Lanes = LanesPerPort }
