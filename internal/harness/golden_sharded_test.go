package harness

import (
	"bytes"
	"testing"

	"repro/internal/results"
)

// TestShardedGoldenDomains pins the sharded engine's determinism guarantee
// at the experiment level: the natural-unit decomposition is fixed by the
// topology and the merge orders are canonical, so a worker budget of 1 and
// of 4 must produce byte-identical experiment JSON across the same
// behavioural slice the classic goldens cover. (Sharded output is NOT
// compared to the classic goldens: epoch-quantized injection, callbacks
// deferred to the epoch barrier and remote switch loads read from the
// epoch-start snapshot make a deliberately different — but internally
// deterministic — timeline.)
func TestShardedGoldenDomains(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded golden runs take a while")
	}
	defer SetClock(FixedClock{})()
	enc, err := results.NewEncoder("json")
	if err != nil {
		t.Fatal(err)
	}
	render := func(name string, opt Options) []byte {
		t.Helper()
		e := Lookup(name)
		if e == nil {
			t.Fatalf("experiment %q not registered", name)
		}
		res, err := e.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := enc.Encode(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, c := range goldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			o1 := c.opt
			o1.Domains = 1
			d1 := render(c.name, o1)
			o4 := c.opt
			o4.Domains = 4
			d4 := render(c.name, o4)
			if !bytes.Equal(d1, d4) {
				t.Errorf("%s diverges between Domains=1 and Domains=4 (%d vs %d bytes).\n%s",
					c.name, len(d1), len(d4), firstDiff(d4, d1))
			}
		})
	}
}
