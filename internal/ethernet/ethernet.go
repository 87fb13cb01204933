// Package ethernet models the frame formats of §II-F and §II-G of the
// paper: the RoCEv2 encapsulation used by all HPC traffic (62 bytes of
// headers and trailers around up to 4 KiB of payload) and the Slingshot
// protocol enhancements — 32-byte minimum frames, headerless IP, and no
// inter-packet gap — that the switches negotiate per port.
package ethernet

// Header/trailer sizes in bytes, from §II-G of the paper. The paper quotes
// a 62-byte total; the consistent decomposition is an 18-byte Ethernet
// header+FCS (the paper's "26 bytes including the preamble" counts the
// 8-byte preamble, which we charge as line overhead alongside the IPG), a
// 12-byte InfiniBand base transport header, IPv4, UDP and the RoCEv2 ICRC.
const (
	EthernetHeader = 18 // MAC header (14) + FCS (4); preamble charged separately
	Preamble       = 8
	IPv4Header     = 20
	UDPHeader      = 8
	InfiniBandBTH  = 12 // InfiniBand base transport header carried by RoCEv2
	RoCEv2CRC      = 4  // ICRC trailer
	// RoCEHeaders is the paper's 62-byte per-packet overhead.
	RoCEHeaders = EthernetHeader + IPv4Header + UDPHeader + InfiniBandBTH + RoCEv2CRC // 62

	// MaxPayload is the RoCEv2 payload cap on Slingshot (§II-G).
	MaxPayload = 4096

	// StdMinFrame is the classic Ethernet minimum frame size; Slingshot
	// reduces it to SlingshotMinFrame (§II-F).
	StdMinFrame       = 64
	SlingshotMinFrame = 32

	// StdIPG is the standard Ethernet inter-packet gap in byte times;
	// Slingshot removes it.
	StdIPG = 12
)

// Mode selects standard Ethernet framing or the Slingshot-enhanced
// protocol. Ports negotiate the mode with the attached device: Rosetta
// switch-to-switch links always use Enhanced; a standard RoCE NIC (like the
// ConnectX-5 used in the paper's measurements) speaks Standard on its edge
// link.
type Mode int

const (
	Standard Mode = iota
	Enhanced
)

func (m Mode) String() string {
	if m == Enhanced {
		return "slingshot-enhanced"
	}
	return "standard-ethernet"
}

// minFrame returns the minimum frame size for the mode.
func (m Mode) minFrame() int {
	if m == Enhanced {
		return SlingshotMinFrame
	}
	return StdMinFrame
}

// lineOverhead returns the per-frame preamble + inter-packet gap in byte
// times for the mode; Slingshot removes both (§II-F).
func (m Mode) lineOverhead() int {
	if m == Enhanced {
		return 0
	}
	return Preamble + StdIPG
}

// WireBytes returns the number of byte times a RoCEv2 packet with the given
// payload occupies on a link operating in the given mode, including
// headers, minimum-frame padding, preamble and inter-packet gap. payload
// is clamped to [0, MaxPayload].
func WireBytes(payload int, m Mode) int {
	if payload < 0 {
		payload = 0
	}
	if payload > MaxPayload {
		payload = MaxPayload
	}
	frame := payload + RoCEHeaders
	if m == Enhanced {
		// Enhanced mode sends IP packets without the Ethernet header.
		frame = payload + RoCEHeaders - EthernetHeader
	}
	if min := m.minFrame(); frame < min {
		frame = min
	}
	return frame + m.lineOverhead()
}

// Packets returns how many RoCEv2 packets a message of the given size
// needs, with the given payload cap per packet (0 means MaxPayload).
func Packets(messageBytes int64, cap int) int {
	if cap <= 0 {
		cap = MaxPayload
	}
	if messageBytes <= 0 {
		return 1 // zero-byte messages still send one (header-only) packet
	}
	return int((messageBytes + int64(cap) - 1) / int64(cap))
}

// Efficiency returns the fraction of wire bytes that carry payload for a
// stream of packets with the given payload size, e.g. ~0.985 for 4 KiB
// payloads in Standard mode.
func Efficiency(payload int, m Mode) float64 {
	if payload <= 0 {
		return 0
	}
	return float64(payload) / float64(WireBytes(payload, m))
}
