// Package lint is simlint: a suite of static analyzers that mechanically
// enforce the three invariant families every result in this reproduction
// rests on — bit-exact determinism (the golden files pinning experiment
// JSON at seed 7), the hot path's allocation budget (BENCH_hotpath.json
// and the CI alloc gate), and the nil-your-pointer Event/Packet free-list
// contract. A careless `range` over a map, a `time.Now()`, a closure in a
// hot handler, or a retained freed *sim.Event silently breaks goldens or
// the alloc gate; these analyzers catch them at lint time instead of by
// bisecting a golden diff.
//
// The suite is self-hosted on go/ast + go/types (no golang.org/x/tools
// dependency): packages are loaded through `go list -export` compiled
// export data. Run is the one driver — cmd/simlint, benchreport's
// simlint stamps and the tree-wide test all go through it — and the
// fixture tests apply single analyzers through RunAnalyzers.
//
// # Directives
//
// Justified exceptions are annotated in the source with a directive
// comment on the flagged line or the line above it:
//
//	//simlint:sortediter -- <why this map iteration is deterministic>
//	//simlint:wallclock  -- <why this code may read the host clock>
//	//simlint:allocok    -- <why this allocation is accepted>
//	//simlint:retained   -- <why this freed-object reference is safe>
//	//simlint:shared     -- <why this package-level state may be shared>
//	//simlint:rngok      -- <why this RNG-stream sharing is sound>
//	//simlint:hotpath            (on a func decl: opt in to the hotpath analyzer)
//
// Every suppression directive requires a ` -- justification`; the
// `directive` analyzer flags unknown names, missing justifications, and
// misplaced hotpath annotations, so the directives themselves stay
// reviewable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one simlint check. It mirrors the golang.org/x/tools
// go/analysis shape (Name/Doc/Run over a Pass) so the checks could be
// rebased onto the real framework if the dependency ever lands.
type Analyzer struct {
	// Name is the analyzer's identifier, shown in diagnostics and used by
	// the -only flag.
	Name string
	// Doc is a one-line description.
	Doc string
	// Directive is the suppression directive honoured for this analyzer's
	// diagnostics ("" = not suppressible).
	Directive string
	// Run reports diagnostics through pass.Reportf.
	Run func(*Pass)
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Pos locates the violation.
	Pos token.Position
	// Pkg is the import path of the package whose analysis produced the
	// diagnostic (for interprocedural findings, Pos may point into a
	// dependency's source).
	Pkg string
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Message states the violation.
	Message string
	// Hint is a one-line fix suggestion.
	Hint string
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: %s [simlint:%s]", d.Pos, d.Message, d.Analyzer)
	if d.Hint != "" {
		s += "\n\tfix: " + d.Hint
	}
	return s
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's syntax trees, test files already
	// excluded (the invariants guard simulation code, not assertions).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	dirs  *directiveIndex
	diags *[]Diagnostic

	// sess is the cross-package fact base of the enclosing run; newly
	// holds the function names this package's call edges first made
	// hotpath-reachable (see callgraph.go).
	sess  *Session
	newly map[string]bool
}

// Reportf records a diagnostic at pos unless a matching suppression
// directive covers that line.
func (p *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	p.reportAt(p.Fset.Position(pos), hint, format, args...)
}

// reportAt is Reportf for an already-resolved position — possibly in a
// dependency's source file, where interprocedural findings land. The
// directive check still runs against the current package's files (foreign
// positions carry no suppressions here; theirs were applied when their
// own package's facts were collected).
func (p *Pass) reportAt(posn token.Position, hint, format string, args ...any) {
	if p.Analyzer.Directive != "" && p.dirs.suppresses(p.Analyzer.Directive, posn) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      posn,
		Pkg:      p.Pkg.Path(),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
	})
}

// directiveNames are the recognised //simlint: directive names.
// needsReason marks the suppressions, which must justify themselves with
// a ` -- <why>` clause.
var directiveNames = map[string]struct{ needsReason bool }{
	"hotpath":    {false},
	"sortediter": {true},
	"wallclock":  {true},
	"allocok":    {true},
	"retained":   {true},
	"shared":     {true},
	"rngok":      {true},
}

// directive is one parsed //simlint: comment.
type directive struct {
	name   string
	reason string
	pos    token.Pos
	file   string
	line   int
}

// directiveIndex locates directives by file and line for suppression
// checks, and retains the raw list for the directive validator.
type directiveIndex struct {
	all    []directive
	byLine map[string]map[int][]directive
}

const directivePrefix = "simlint:"

// parseDirectives scans every comment of the files for //simlint:
// directives.
func parseDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{byLine: map[string]map[int][]directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
				if !ok {
					continue
				}
				name, reason := text, ""
				if i := strings.Index(text, "--"); i >= 0 {
					name = text[:i]
					reason = strings.TrimSpace(text[i+2:])
				}
				name = strings.TrimSpace(name)
				posn := fset.Position(c.Pos())
				d := directive{name: name, reason: reason, pos: c.Pos(), file: posn.Filename, line: posn.Line}
				idx.all = append(idx.all, d)
				lines := idx.byLine[d.file]
				if lines == nil {
					lines = map[int][]directive{}
					idx.byLine[d.file] = lines
				}
				lines[d.line] = append(lines[d.line], d)
			}
		}
	}
	return idx
}

// suppresses reports whether a directive of the given name covers the
// position: same line (end-of-line comment) or the line directly above.
func (idx *directiveIndex) suppresses(name string, posn token.Position) bool {
	lines := idx.byLine[posn.Filename]
	for _, d := range lines[posn.Line] {
		if d.name == name {
			return true
		}
	}
	for _, d := range lines[posn.Line-1] {
		if d.name == name {
			return true
		}
	}
	return false
}

// corePackages are the sim-core import paths whose map iterations must be
// deterministic (the mapiter scope). The experiment harness and results
// layers sit above the simulation and may range maps into sorted
// containers; cmd/ and examples/ are out of scope entirely.
var corePackages = map[string]bool{
	"repro/internal/sim":        true,
	"repro/internal/sim/par":    true,
	"repro/internal/fabric":     true,
	"repro/internal/flow":       true,
	"repro/internal/topology":   true,
	"repro/internal/routing":    true,
	"repro/internal/congestion": true,
	"repro/internal/qos":        true,
	"repro/internal/workloads":  true,
	"repro/internal/mpi":        true,
	"repro/internal/placement":  true,
	"repro/internal/phy":        true,
	"repro/internal/ethernet":   true,
	"repro/internal/rosetta":    true,
	"repro/internal/stats":      true,
}

// moduleOnly reports whether the package is part of this module's
// library code (the simlint scope): everything under the repro module
// except cmd/ binaries and examples/.
func moduleOnly(path string) bool {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return false
	}
	return !strings.HasPrefix(path, "repro/cmd/") &&
		!strings.HasPrefix(path, "repro/examples/")
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapIter, WallTime, HotPath, Spine, SharedState, RNGStream, FreeList, SchedFunc, Directive}
}

// ByName resolves a comma-separated analyzer list ("" = all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a := byName[strings.TrimSpace(n)]
		if a == nil {
			known := make([]string, 0, len(byName))
			for k := range byName { //simlint:sortediter -- keys are sorted before use
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies the analyzers to one type-checked package and
// returns the surviving (undirectived) diagnostics sorted by position.
// It runs in a fresh single-package Session, so interprocedural
// analyzers see only this package's own call graph — the fixture-test
// entry point; Run threads one Session through every package instead.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info) []Diagnostic {
	return NewSession().RunPackage(analyzers, fset, files, pkg, info)
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// NewInfo returns a types.Info with every map the analyzers read.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// funcIsHotpath reports whether a function declaration carries the
// //simlint:hotpath annotation in its doc comment (or on the line
// directly above the declaration when it has no doc).
func funcIsHotpath(dirs *directiveIndex, fset *token.FileSet, fd *ast.FuncDecl) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if strings.HasPrefix(c.Text, "//"+directivePrefix+"hotpath") {
				return true
			}
		}
	}
	posn := fset.Position(fd.Pos())
	for _, d := range dirs.byLine[posn.Filename][posn.Line-1] {
		if d.name == "hotpath" {
			return true
		}
	}
	return false
}

// pkgPathIs reports whether a types.Package has the given import path.
// Vendoring is not in play in this module, so exact comparison suffices.
func pkgPathIs(p *types.Package, path string) bool {
	return p != nil && p.Path() == path
}

// funcObj resolves the called function object of a call expression, or
// nil for builtins, conversions, and indirect calls through variables.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
