package phy

import (
	"testing"

	"repro/internal/sim"
)

func TestPortBandwidth(t *testing.T) {
	// §II-A: 4 lanes x 56 Gb/s raw, 50 Gb/s each post-FEC = 200 Gb/s.
	if PortBits != 200e9 {
		t.Fatalf("PortBits = %d", PortBits)
	}
	if LaneRawBits <= LaneDataBits {
		t.Error("FEC overhead missing")
	}
}

func TestPropagationDelays(t *testing.T) {
	if CopperDelay() != 13*sim.Nanosecond {
		t.Errorf("copper = %v", CopperDelay())
	}
	if OpticalDelay() != 150*sim.Nanosecond {
		t.Errorf("optical = %v", OpticalDelay())
	}
	if EdgeDelay() != 10*sim.Nanosecond {
		t.Errorf("edge = %v", EdgeDelay())
	}
	if OpticalDelay() <= CopperDelay() {
		t.Error("optical should be longer than copper")
	}
}

func TestLaneDegrade(t *testing.T) {
	l := NewLink()
	full := l.Bandwidth()
	if full != 200e9 {
		t.Fatalf("full bandwidth = %d", full)
	}
	if !l.DegradeLane() {
		t.Fatal("link should survive one lane loss")
	}
	if l.Bandwidth() != 150e9 {
		t.Errorf("3-lane bandwidth = %d", l.Bandwidth())
	}
	l.DegradeLane()
	l.DegradeLane()
	if l.DegradeLane() {
		t.Error("0-lane link claims to be usable")
	}
	l.RestoreLanes()
	if l.Bandwidth() != full {
		t.Error("RestoreLanes did not restore")
	}
}
