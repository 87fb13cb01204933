package lint

import (
	"go/ast"
	"go/types"
)

// FreeList enforces the PR 2/3 nil-your-pointer free-list contract
// mechanically. The engine recycles every *sim.Event after its handler
// runs, and the fabric recycles every *fabric.Packet at deliver, so:
//
//  1. An OnEvent implementation that reads a stored *sim.Event field
//     (`o.watchdogEv`) must also nil that field — otherwise the object keeps
//     a pointer to a struct the engine will hand to an unrelated future
//     Schedule, and a later Cancel through the stale pointer corrupts the
//     queue.
//  2. Storing a *fabric.Packet into a field (or appending one to a slice)
//     retains it past its recycling point; only the fabric's own
//     free-list may do that.
var FreeList = &Analyzer{
	Name:      "freelist",
	Doc:       "flags free-list contract violations: unnilled event fields, retained packets",
	Directive: "retained",
	Run:       runFreeList,
}

func runFreeList(pass *Pass) {
	if !moduleOnly(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isOnEventMethod(pass.Info, fd) {
				checkEventFieldNilling(pass, fd)
			}
			checkPacketRetention(pass, fd)
		}
	}
}

// isOnEventMethod reports whether fd implements sim.Handler: a method
// named OnEvent whose last parameter is a *sim.Event.
func isOnEventMethod(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || fd.Name.Name != "OnEvent" {
		return false
	}
	params := fd.Type.Params.List
	if len(params) == 0 {
		return false
	}
	return isNamedPtr(info.Types[params[len(params)-1].Type].Type, "repro/internal/sim", "Event")
}

// checkEventFieldNilling verifies that every stored-event field the
// handler reads is also nilled somewhere in the handler body.
func checkEventFieldNilling(pass *Pass, fd *ast.FuncDecl) {
	// First pass: classify assignment LHS selectors — a `x.f = nil` is
	// the contract's release; a `x.f = <event>` is a (re)store, not a
	// read.
	assignedNil := map[string]bool{}
	assignLHS := map[*ast.SelectorExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok || !isEventField(pass.Info, sel) {
				continue
			}
			assignLHS[sel] = true
			if tv, ok := pass.Info.Types[as.Rhs[i]]; ok && tv.IsNil() {
				assignedNil[sel.Sel.Name] = true
			}
		}
		return true
	})

	// Second pass: any read of an event field without a matching nil
	// assignment violates the contract.
	reported := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || assignLHS[sel] || !isEventField(pass.Info, sel) {
			return true
		}
		name := sel.Sel.Name
		if assignedNil[name] || reported[name] {
			return true
		}
		reported[name] = true
		pass.Reportf(sel.Pos(),
			"assign "+name+" = nil in the handler (the engine recycles the event after OnEvent returns), or annotate //simlint:retained -- <why>",
			"OnEvent reads stored event field %s without nilling it; the pointer goes stale when the engine recycles the event", name)
		return true
	})
}

// checkPacketRetention flags stores that retain a *fabric.Packet beyond
// the handler: assignment into a field of another object, or append into
// a slice. The packet free-list itself carries //simlint:retained.
func checkPacketRetention(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if !isPacketPtr(exprType(pass.Info, n.Rhs[i])) {
					continue
				}
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || pass.Info.Selections[sel] == nil {
					continue // locals may hold a packet within the handler
				}
				// A packet writing its own fields is not retention.
				if isPacketPtr(exprType(pass.Info, sel.X)) {
					continue
				}
				pass.Reportf(n.Rhs[i].Pos(),
					"copy what you need out of the packet (it is recycled at deliver), or annotate //simlint:retained -- <why>",
					"storing *fabric.Packet into field %s retains it past deliver", sel.Sel.Name)
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok || id.Name != "append" {
				return true
			}
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			for _, arg := range n.Args[1:] {
				if isPacketPtr(exprType(pass.Info, arg)) {
					pass.Reportf(arg.Pos(),
						"copy what you need out of the packet (it is recycled at deliver), or annotate //simlint:retained -- <why>",
						"appending *fabric.Packet to a slice retains it past deliver")
				}
			}
		}
		return true
	})
}

// isEventField reports whether sel is a struct-field selection of type
// *sim.Event.
func isEventField(info *types.Info, sel *ast.SelectorExpr) bool {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return false
	}
	return isNamedPtr(s.Type(), "repro/internal/sim", "Event")
}

func isPacketPtr(t types.Type) bool {
	return isNamedPtr(t, "repro/internal/fabric", "Packet")
}

// isNamedPtr reports whether t is *pkg.Name.
func isNamedPtr(t types.Type, pkgPath, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && pkgPathIs(obj.Pkg(), pkgPath)
}

func exprType(info *types.Info, expr ast.Expr) types.Type {
	if tv, ok := info.Types[expr]; ok {
		return tv.Type
	}
	return nil
}
