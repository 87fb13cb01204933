package harness

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/results"
)

// TestShardedFluidDeterminism extends the sharded-determinism rule to the
// fluid fidelities: experiment JSON must stay byte-identical across worker
// budgets 1, 2, 4 and 8 at both flow and hybrid fidelity, and the
// Domains=1 render must match its golden file (golden_<exp>-<fidelity>.json),
// which pins the fluid engine's output byte for byte. Fluid flows run
// on the control-side engine, which advances only between epochs; in
// hybrid mode the packet shards run in parallel beside it and read the
// background load it publishes at the barriers. (Sharded output is not
// compared against the classic engine here: packet traffic on the shards
// follows a deliberately different, epoch-quantized timeline.)
func TestShardedFluidDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded fluid determinism runs take a while")
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
	cases := []struct {
		name string
		opt  Options
	}{
		// fig6 drives the global-link bisection — the flow solver's
		// bread and butter; fig8's aggressors exercise the hybrid
		// classification and background-load publication.
		{"fig6", Options{Nodes: 32, Seed: 7}},
		{"fig8", Options{Nodes: 48, MinIters: 1, MaxIters: 2, Seed: 7}},
	}
	for _, c := range cases {
		for _, fid := range []string{"flow", "hybrid"} {
			t.Run(fmt.Sprintf("%s/%s", c.name, fid), func(t *testing.T) {
				o := c.opt
				o.Fidelity = fid
				o.Domains = 1
				want := render(c.name, o)
				checkGolden(t, c.name+"-"+fid, want)
				for _, d := range []int{2, 4, 8} {
					od := c.opt
					od.Fidelity = fid
					od.Domains = d
					got := render(c.name, od)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s/%s diverges between Domains=1 and Domains=%d (%d vs %d bytes).\n%s",
							c.name, fid, d, len(want), len(got), firstDiff(got, want))
					}
				}
			})
		}
	}
}
