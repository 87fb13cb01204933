package lint

import "testing"

// TestTreeIsSimlintClean is the repo-wide gate: the full analyzer suite
// over every package of the module, annotation drift included, must
// report zero undirectived diagnostics. It is the same run as CI's
// `simlint ./...` step, kept here so `go test ./...` catches violations
// without the extra build step.
func TestTreeIsSimlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("go list -export over ./... compiles the module")
	}
	rep, err := Run("../..", All(), "./...")
	if err != nil {
		t.Fatalf("loading module packages (needs the go tool): %v", err)
	}
	for _, d := range rep.Diags {
		t.Errorf("%s", d)
	}
	if len(rep.Diags) > 0 {
		t.Log("fix the violation or add the analyzer's //simlint: directive with a justification")
	}
}
