package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		iters int
		split float64
		ok    bool
	}{
		{"defaults", 48, 10, 0.5, true},
		{"smallest machine", 4, 1, 0.5, true},
		{"nodes=3", 3, 10, 0.5, false},
		{"iters=0", 48, 0, 0.5, false},
		{"iters=-3", 48, -3, 0.5, false},
		{"split=0", 48, 10, 0, false},
		{"split=1", 48, 10, 1, false},
		{"split=1.5", 48, 10, 1.5, false},
		{"split=-1", 48, 10, -1, false},
		{"split=NaN", 48, 10, math.NaN(), false},
	}
	for _, c := range cases {
		err := checkFlags(c.nodes, c.iters, c.split)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags(%d, %d, %v) = %v, want ok=%v", c.name, c.nodes, c.iters, c.split, err, c.ok)
		}
	}
}
