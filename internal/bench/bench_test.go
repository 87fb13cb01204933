package bench

import (
	"strings"
	"testing"
)

// TestSteadyStateAllocs pins the rows whose steady state allocates
// nothing: after its warm-up, a FlowEngine unit (the fabric-level fluid
// Send with Recycle, its solve and its completion) and a ChoosePath
// decision (the policy's Choose through Network.ChoosePath on a warm path
// cache) make no heap allocation.
func TestSteadyStateAllocs(t *testing.T) {
	for _, r := range Suite() {
		if r.Name != "FlowEngine" && !strings.HasPrefix(r.Name, "ChoosePath/") {
			continue
		}
		t.Run(r.Name, func(t *testing.T) {
			run := r.Fixture()
			run(r.Warm)
			if allocs := testing.AllocsPerRun(10, func() { run(1000) }); allocs != 0 {
				t.Errorf("%v allocations per 1000 units after a %d-unit warm-up, want 0", allocs, r.Warm)
			}
		})
	}
}
