package lint

import (
	"go/ast"
	"go/types"
)

// MapIter flags `for … range` over map values in the sim-core packages.
// Go randomizes map iteration order, so any map range whose body's effect
// depends on visit order (scheduling, RNG draws, accumulating into
// non-commutative state) breaks bit-exact replay — the class of bug the
// eight seed-7 golden files exist to catch, found here at lint time
// instead.
var MapIter = &Analyzer{
	Name:      "mapiter",
	Doc:       "flags nondeterministic map iteration in sim-core packages",
	Directive: "sortediter",
	Run:       runMapIter,
}

func runMapIter(pass *Pass) {
	if !corePackages[pass.Pkg.Path()] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			pass.Reportf(rs.For,
				"iterate sorted keys (or another input-determined order), or annotate //simlint:sortediter -- <why the consumption is order-independent>",
				"range over map %s iterates in nondeterministic order (breaks bit-exact replay)",
				types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
			return true
		})
	}
}
