package lint

// Spine is the interprocedural half of the hot-path gate. The hotpath
// analyzer checks the bodies of //simlint:hotpath-annotated functions;
// spine walks the call graph (static edges plus sound interface
// dispatch, see callgraph.go) outward from those annotations and flags
// the helper-call hole: a function that is *reachable* from the spine
// but not annotated, and whose body contains an unambiguous allocation
// construct (a variable-capturing closure, a map literal or make(map),
// or an fmt/errors/log call). Such a helper allocates per event exactly
// as if the construct sat in the annotated caller, but PR 6's
// intra-procedural check could not see it.
//
// Each finding is reported once, by the package whose call edges first
// make the function reachable — the package holding the linking call
// site. The diagnostic's position is the alloc construct itself, which
// may be in a dependency's source file.
//
// The analyzer also reports annotation drift — //simlint:hotpath
// functions unreachable from the Engine.Step/Schedule roots — but only
// in whole-module runs (Session.DriftDiags), where the complete call
// graph is in view.
var Spine = &Analyzer{
	Name:      "spine",
	Doc:       "flags unannotated-but-hotpath-reachable functions that allocate (call-graph analysis)",
	Directive: "allocok",
	Run:       runSpine,
}

func runSpine(pass *Pass) {
	if pass.sess == nil {
		return
	}
	for _, name := range sortedKeys(pass.newly) {
		ref, ok := pass.sess.byFunc[name]
		if !ok || ref.fact.Hotpath || len(ref.fact.Allocs) == 0 || !spineScope(ref.pkg) {
			continue
		}
		for _, a := range ref.fact.Allocs {
			pass.reportAt(a.Pos,
				"annotate the function //simlint:hotpath and fix the allocation, or justify the construct with //simlint:allocok -- <why>",
				"%s is reachable from the hot-path spine but not annotated //simlint:hotpath, and allocates (%s)",
				name, a.What)
		}
	}
}
