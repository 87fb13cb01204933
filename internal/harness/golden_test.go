package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/results"
)

// The golden tests pin the exact JSON output of a representative slice of
// experiments at a fixed seed. They are the acceptance gate for hot-path
// work: any refactor of the engine, fabric, topology, or scheduler must
// reproduce these files byte for byte (wall time excepted — it is zeroed
// before encoding). TestShardedFluidDeterminism pins four more files,
// fig6 and fig8 at flow and at hybrid fidelity. Regenerate all twelve
// deliberately with:
//
//	go test ./internal/harness -run 'TestGoldenRunJSON|TestShardedFluidDeterminism' -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden run files")

// goldenCases cover the simulator's behavioural surface cheaply: switch
// jitter (fig2), fabric latency/bandwidth + rendezvous + boxplots (fig4),
// global-link bisection with adaptive routing (fig6), congestion control
// under aggressors (fig8, fig12), QoS traffic classes (fig13), the
// fat-tree + HyperX backends behind the Topology interface (topo-compare),
// and the routing x CC policy layers (policy-compare — all four routing
// policies and all three default CC backends on every topology).
var goldenCases = []struct {
	name string
	opt  Options
}{
	{"fig2", Options{Nodes: 32, MaxIters: 300, Seed: 7}},
	{"fig4", Options{Nodes: 32, MaxIters: 8, Seed: 7}},
	{"fig6", Options{Nodes: 32, Seed: 7}},
	{"fig8", Options{Nodes: 48, MaxIters: 6, Seed: 7}},
	{"fig12", Options{Nodes: 24, MinIters: 2, MaxIters: 3, Seed: 7}},
	{"fig13", Options{Nodes: 24, Seed: 7}},
	{"topo-compare", Options{Nodes: 24, MinIters: 1, MaxIters: 2, Seed: 7}},
	{"policy-compare", Options{Nodes: 24, MinIters: 1, MaxIters: 2, Seed: 7}},
}

func TestGoldenRunJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take ~10s")
	}
	// A frozen clock stamps Wall = 0, so the goldens pin Result meta —
	// wall_ns included — without post-hoc scrubbing.
	defer SetClock(FixedClock{})()
	enc, err := results.NewEncoder("json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			e := Lookup(c.name)
			if e == nil {
				t.Fatalf("experiment %q not registered", c.name)
			}
			res, err := e.Run(c.opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := enc.Encode(&buf, res); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name, buf.Bytes())
		})
	}
}

// checkGolden compares got with testdata/golden_<name>.json, or rewrites
// that file under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", fmt.Sprintf("golden_%s.json", name))
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s output diverged from golden %s (%d vs %d bytes).\n"+
			"If the change is intentional, regenerate with -update-golden.\n%s",
			name, path, len(got), len(want), firstDiff(got, want))
	}
}

// firstDiff renders the first divergent region of two byte strings.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	end := func(b []byte) int {
		if i+80 < len(b) {
			return i + 80
		}
		return len(b)
	}
	return fmt.Sprintf("first divergence at byte %d:\n got: …%s…\nwant: …%s…",
		i, got[lo:end(got)], want[lo:end(want)])
}
