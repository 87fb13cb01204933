package lint

// Whole-module tests of Run against throwaway fixture modules: the
// checks that only a run over several packages through one fact Session
// can make — a spine finding that crosses a package boundary, and
// hotpath-annotation drift judged against the complete call graph.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a fixture module (go.mod included) from a map of
// relative path to source, returning its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestCrossPackageSpine: package b holds an unannotated allocating
// helper; package a's annotated root calls it across the package
// boundary. The finding is reported while analyzing a, positioned at
// the closure inside b/b.go.
func TestCrossPackageSpine(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	dir := writeModule(t, map[string]string{
		"b/b.go": `package b

// Helper computes through a tiny capturing closure, the allocation the
// spine analyzer must attribute across the package boundary.
func Helper(x int) int {
	f := func() int { return x + 1 }
	return f()
}
`,
		"a/a.go": `package a

import "tmpmod/b"

//simlint:hotpath
func Root() int {
	return b.Helper(41)
}
`,
	})

	rep, err := Run(dir, All(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	var spineDiags []Diagnostic
	for _, d := range rep.Diags {
		if d.Analyzer == "spine" {
			spineDiags = append(spineDiags, d)
		} else {
			t.Errorf("unexpected %s diagnostic: %v", d.Analyzer, d)
		}
	}
	if len(spineDiags) != 1 {
		t.Fatalf("got %d spine diagnostics, want 1: %v", len(spineDiags), spineDiags)
	}
	d := spineDiags[0]
	if posn := d.Pos.String(); !strings.Contains(posn, filepath.Join("b", "b.go")) {
		t.Errorf("finding at %s, want a position inside b/b.go", posn)
	}
	if !strings.Contains(d.Message, "tmpmod/b.Helper is reachable from the hot-path spine") {
		t.Errorf("message %q does not name the unannotated helper", d.Message)
	}
	if !strings.Contains(d.Message, "closure capturing") {
		t.Errorf("message %q does not name the allocation construct", d.Message)
	}
	if d.Pkg != "tmpmod/a" {
		t.Errorf("finding attributed to %q, want the root's package tmpmod/a", d.Pkg)
	}
	want := []string{"tmpmod/a.Root", "tmpmod/b.Helper"}
	if strings.Join(rep.Spine, ",") != strings.Join(want, ",") {
		t.Errorf("spine = %v, want %v", rep.Spine, want)
	}
}

// TestAnnotationDrift: package sim's annotated Engine.Step dispatches
// through a Handler interface; package a annotates one handler that
// dispatch reaches and one function nothing calls. Only the second is
// drift.
func TestAnnotationDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	dir := writeModule(t, map[string]string{
		"sim/sim.go": `package sim

// Handler receives the engine's dispatched events.
type Handler interface{ OnEvent(e *Engine) }

// Engine dispatches one event per step.
type Engine struct{ H Handler }

//simlint:hotpath
func (e *Engine) Step() { e.H.OnEvent(e) }
`,
		"a/a.go": `package a

import "tmpmod/sim"

// Counter is reached from Engine.Step through Handler dispatch.
type Counter struct{ N int }

//simlint:hotpath
func (c *Counter) OnEvent(*sim.Engine) { c.N++ }

// Stale is annotated, but nothing calls it.
//
//simlint:hotpath
func Stale() int { return 1 }
`,
	})

	rep, err := Run(dir, All(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the drift of tmpmod/a.Stale: %v", len(rep.Diags), rep.Diags)
	}
	d := rep.Diags[0]
	if d.Analyzer != "spine" {
		t.Errorf("drift reported by %q, want spine", d.Analyzer)
	}
	if !strings.Contains(d.Message, "tmpmod/a.Stale is annotated //simlint:hotpath but is not reachable") ||
		!strings.Contains(d.Message, "annotation drift") {
		t.Errorf("message %q does not report tmpmod/a.Stale as drifted", d.Message)
	}
	if want := filepath.Join("a", "a.go") + ":14:"; !strings.Contains(d.Pos.String(), want) {
		t.Errorf("finding at %s, want the declaration of Stale (%s)", d.Pos, want)
	}
	if d.Pkg != "tmpmod/a" {
		t.Errorf("finding attributed to %q, want tmpmod/a", d.Pkg)
	}
}
