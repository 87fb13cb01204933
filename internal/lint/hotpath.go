package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath backs the measured allocs/unit gate on BENCH_hotpath.json with
// a source-level gate: functions annotated
// //simlint:hotpath (the per-event/per-packet spine — Engine.Step and
// Schedule, the NIC/switch/port handlers, Network.route, the routing
// Choose backends, the congestion CanSend/OnSend/OnAck hooks,
// qos.PortScheduler.Dequeue) must not contain allocation-causing
// constructs: variable-capturing closures, fmt/errors/log calls, map
// literals or makes, interface-boxing conversions of basic values, or
// appends to slices the receiver does not own.
var HotPath = &Analyzer{
	Name:      "hotpath",
	Doc:       "flags allocation-causing constructs in //simlint:hotpath functions",
	Directive: "allocok",
	Run:       runHotPath,
}

// allocPkgs are packages whose calls always allocate (formatting buffers,
// error values) and never belong on the per-packet spine.
var allocPkgs = map[string]bool{"fmt": true, "errors": true, "log": true}

func runHotPath(pass *Pass) {
	if !moduleOnly(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcIsHotpath(pass.dirs, pass.Fset, fd) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	recv := receiverObj(pass.Info, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if name := capturedVar(pass.Info, fd, n); name != "" {
				pass.Reportf(n.Pos(),
					"hoist the closure to a static Handler (or package-level func) and pass state through Event.Arg/Data",
					"closure captures %q and allocates per call in hot path %s", name, fd.Name.Name)
			}
		case *ast.CompositeLit:
			if tv, ok := pass.Info.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(),
						"preallocate the map outside the hot path (construction time) and reuse it",
						"map literal allocates in hot path %s", fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fd, recv, n)
		case *ast.AssignStmt:
			checkHotAssignBoxing(pass, fd, n)
		}
		return true
	})
}

func checkHotCall(pass *Pass, fd *ast.FuncDecl, recv types.Object, call *ast.CallExpr) {
	// Explicit conversion T(x): flag basic -> interface boxing.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && isBasicValue(pass.Info, call.Args[0]) {
			pass.Reportf(call.Pos(),
				"keep the value in a scalar field (Event.Arg) or a concrete type; boxing a basic value into an interface allocates",
				"conversion of basic value to %s allocates in hot path %s",
				types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), fd.Name.Name)
		}
		return
	}

	// Builtins: make(map[...]...) and append.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				if tv, ok := pass.Info.Types[call]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(call.Pos(),
							"preallocate the map outside the hot path (construction time) and reuse it",
							"make(map) allocates in hot path %s", fd.Name.Name)
					}
				}
			case "append":
				if len(call.Args) > 0 && !receiverOwned(pass.Info, recv, call.Args[0]) {
					pass.Reportf(call.Pos(),
						"append only to receiver-owned reusable buffers (preallocated at construction), or copy outside the hot path",
						"append to non-receiver-owned slice may grow/allocate in hot path %s", fd.Name.Name)
				}
			}
			return
		}
	}

	// Calls into always-allocating packages.
	if fn := funcObj(pass.Info, call); fn != nil && fn.Pkg() != nil && allocPkgs[fn.Pkg().Path()] {
		pass.Reportf(call.Pos(),
			"move formatting/error construction off the per-packet spine (precompute, or count and report at drain time)",
			"%s.%s allocates in hot path %s", fn.Pkg().Name(), fn.Name(), fd.Name.Name)
		return
	}

	// Implicit boxing: a basic-typed argument passed for an
	// interface-typed parameter.
	sig := callSignature(pass.Info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // passing a slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && types.IsInterface(pt) && isBasicValue(pass.Info, arg) {
			pass.Reportf(arg.Pos(),
				"pass scalars through Event.Arg (int64) or widen the callee's parameter to a concrete type; boxing allocates",
				"basic value boxed into %s parameter allocates in hot path %s",
				types.TypeString(pt, types.RelativeTo(pass.Pkg)), fd.Name.Name)
		}
	}
}

// checkHotAssignBoxing flags assignments that box a basic value into an
// interface-typed variable or field.
func checkHotAssignBoxing(pass *Pass, fd *ast.FuncDecl, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt, ok := pass.Info.Types[lhs]
		if !ok || !types.IsInterface(lt.Type) {
			continue
		}
		if isBasicValue(pass.Info, as.Rhs[i]) {
			pass.Reportf(as.Rhs[i].Pos(),
				"store scalars in a typed field (or Event.Arg); assigning a basic value to an interface allocates",
				"basic value boxed into %s on assignment allocates in hot path %s",
				types.TypeString(lt.Type, types.RelativeTo(pass.Pkg)), fd.Name.Name)
		}
	}
}

// capturedVar returns the name of a variable the closure captures from
// its enclosing function (receiver, parameter, or local), or "" if the
// closure captures nothing. Package-level state is not a capture.
func capturedVar(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared inside the enclosing function but outside
		// this literal.
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			name = v.Name()
		}
		return true
	})
	return name
}

// receiverObj returns the method receiver's object, or nil for plain
// functions and unnamed receivers.
func receiverObj(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[fd.Recv.List[0].Names[0]]
}

// receiverOwned reports whether an expression is rooted at the method
// receiver (e.free, o.buf[i], ...). Appending to such slices reuses the
// receiver's steady-state capacity; anything else may allocate a new
// backing array per call.
func receiverOwned(info *types.Info, recv types.Object, expr ast.Expr) bool {
	if recv == nil {
		return false
	}
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return info.Uses[e] == recv
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return false
		}
	}
}

// isBasicValue reports whether the expression is a value (not nil, not a
// type) of basic or basic-underlying type — the class whose conversion to
// an interface allocates at runtime.
func isBasicValue(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.IsType() || tv.IsNil() {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() != types.UntypedNil && b.Kind() != types.Invalid
}

// callSignature resolves the signature of the called function, through
// either a direct reference or a function-typed expression.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	if tv, ok := info.Types[call.Fun]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			return sig
		}
	}
	return nil
}
