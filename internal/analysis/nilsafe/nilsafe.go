// Package nilsafe enforces the telemetry nil-safety contract from both
// sides.
//
// Rule A — inside the telemetry package: every exported method with a
// pointer receiver on a nil-safe type (Registry, Lifecycle, Counter,
// Gauge, Histogram, AccessLog, CounterVec, HistVec) must
// establish its nil guard in the first statement: a `recv == nil`
// comparison (guard-and-return or `return recv != nil`), or pure
// delegation to another method of the same receiver. This is what makes
// a disabled (nil) registry free to call from anywhere.
//
// Rule B — outside the telemetry package: a method call on a gated
// type (*telemetry.Lifecycle, *telemetry.Watchdog) must sit behind the
// established call-site gate. The lifecycle tracer is fetched through
// an atomic pointer and the idiom skips argument construction when
// tracing is off; the watchdog is nil when disabled, and gating keeps
// probe closures from being built for nothing:
//
//	if lc := reg.Lifecycle(); lc != nil { lc.OnReadHit(...) }
//
// or an early `if lc == nil { return }` guard earlier in the function.
// Calling through the accessor directly (reg.Lifecycle().OnX(...)) is
// always flagged.
package nilsafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"hfetch/internal/analysis/framework"
)

// Config parameterizes the analyzer so fixtures can target
// fixture-local types.
type Config struct {
	// Pkg is the package whose exported methods Rule A covers.
	Pkg string
	// NilSafe are type names in Pkg whose pointer methods must begin
	// with the nil guard.
	NilSafe []string
	// Gated are type names in Pkg whose methods must be nil-gated at
	// call sites outside Pkg (Rule B).
	Gated []string
}

// DefaultConfig covers hfetch/internal/telemetry.
func DefaultConfig() Config {
	return Config{
		Pkg: "hfetch/internal/telemetry",
		NilSafe: []string{
			"Registry", "Lifecycle", "Counter", "Gauge", "Histogram",
			"AccessLog", "CounterVec", "HistVec", "Watchdog",
		},
		Gated: []string{"Lifecycle", "Watchdog"},
	}
}

// Analyzer checks the repo against DefaultConfig.
var Analyzer = NewAnalyzer(DefaultConfig())

// NewAnalyzer builds a nilsafe analyzer for cfg.
func NewAnalyzer(cfg Config) *framework.Analyzer {
	return &framework.Analyzer{
		Name: "nilsafe",
		Doc:  "enforce telemetry nil-receiver guards and call-site lifecycle gating",
		Run:  func(pass *framework.Pass) error { return run(pass, cfg) },
	}
}

func run(pass *framework.Pass, cfg Config) error {
	if pass.Pkg == nil {
		return nil
	}
	nilSafe := make(map[string]bool, len(cfg.NilSafe))
	for _, n := range cfg.NilSafe {
		nilSafe[cfg.Pkg+"."+n] = true
	}
	gated := make(map[string]bool, len(cfg.Gated))
	for _, n := range cfg.Gated {
		gated[cfg.Pkg+"."+n] = true
	}
	if pass.Pkg.Path() == cfg.Pkg {
		ruleA(pass, nilSafe)
		return nil
	}
	ruleB(pass, gated)
	return nil
}

// --- Rule A -----------------------------------------------------------

func ruleA(pass *framework.Pass, nilSafe map[string]bool) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || !fd.Name.IsExported() {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if _, isPtr := types.Unalias(sig.Recv().Type()).(*types.Pointer); !isPtr {
				continue
			}
			recv := framework.ReceiverNamed(fn)
			if !nilSafe[framework.TypeKey(recv)] {
				continue
			}
			recvObj := recvVar(pass, fd)
			if recvObj == nil {
				// Unnamed receiver cannot be nil-checked.
				pass.Reportf(fd.Name.Pos(),
					"exported method %s.%s on nil-safe type has unnamed receiver; name it and add the nil guard",
					recv.Obj().Name(), fd.Name.Name)
				continue
			}
			if !guardsBeforeUse(pass, fd.Body, recvObj) {
				pass.Reportf(fd.Name.Pos(),
					"exported method %s.%s must nil-check the receiver (if %s == nil) before using it, or delegate to a guarded method",
					recv.Obj().Name(), fd.Name.Name, recvObj.Name())
			}
		}
	}
}

func recvVar(pass *framework.Pass, fd *ast.FuncDecl) types.Object {
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}

// guardsBeforeUse walks the body's top-level statements in order: the
// receiver's nil guard (any nil-comparison of it) must appear no later
// than its first other use. A statement that uses the receiver only as
// the direct callee of its own methods counts as delegation — the
// callee carries the guard (e.g. `r.Snapshot().WriteText(w)`).
func guardsBeforeUse(pass *framework.Pass, body *ast.BlockStmt, recv types.Object) bool {
	for _, s := range body.List {
		if containsNilCompare(pass, s, recv) {
			return true
		}
		if !usesObj(pass, s, recv) {
			continue
		}
		return delegates(pass, s, recv)
	}
	// Receiver never dereferenced at all — trivially nil-safe.
	return true
}

func usesObj(pass *framework.Pass, n ast.Node, obj types.Object) bool {
	used := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

// delegates reports whether every use of recv in s is as the immediate
// receiver of a method call (recv.M(...)), so the called method's own
// guard covers it.
func delegates(pass *framework.Pass, s ast.Stmt, recv types.Object) bool {
	ok := true
	ast.Inspect(s, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			if id, isID := n.(*ast.Ident); isID && pass.TypesInfo.Uses[id] == recv {
				ok = false // bare use outside a recv.M(...) shape
			}
			return ok
		}
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID && pass.TypesInfo.Uses[id] == recv {
				if _, mok := pass.TypesInfo.Selections[sel]; mok {
					// recv.M(args): skip the receiver ident, check args.
					for _, a := range call.Args {
						ast.Inspect(a, func(n ast.Node) bool {
							if id, isID := n.(*ast.Ident); isID && pass.TypesInfo.Uses[id] == recv {
								ok = false
							}
							return ok
						})
					}
					return false
				}
			}
		}
		return ok
	})
	return ok
}

func containsNilCompare(pass *framework.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return !found
		}
		if isObjIdent(pass, be.X, obj) && isNil(pass, be.Y) ||
			isObjIdent(pass, be.Y, obj) && isNil(pass, be.X) {
			found = true
		}
		return !found
	})
	return found
}

func isObjIdent(pass *framework.Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}

func isNil(pass *framework.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

// --- Rule B -----------------------------------------------------------

func ruleB(pass *framework.Pass, gated map[string]bool) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGatedCalls(pass, fd, gated)
		}
	}
}

func checkGatedCalls(pass *framework.Pass, fd *ast.FuncDecl, gated map[string]bool) {
	// earlyGuards: objects with a terminating `if obj == nil { return }`
	// guard, keyed to the guard's end position.
	type guard struct {
		obj types.Object
		end token.Pos
	}
	var earlyGuards []guard
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !terminates(ifs.Body) {
			return true
		}
		be, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || be.Op != token.EQL {
			return true
		}
		var idExpr ast.Expr
		switch {
		case isNil(pass, be.Y):
			idExpr = be.X
		case isNil(pass, be.X):
			idExpr = be.Y
		default:
			return true
		}
		if id, ok := ast.Unparen(idExpr).(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				earlyGuards = append(earlyGuards, guard{obj: obj, end: ifs.End()})
			}
		}
		return true
	})

	gatedHere := func(stack []ast.Node, obj types.Object, at token.Pos) bool {
		for _, g := range earlyGuards {
			if g.obj == obj && g.end <= at {
				return true
			}
		}
		for _, n := range stack {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				continue
			}
			ok2 := false
			ast.Inspect(ifs.Cond, func(n ast.Node) bool {
				be, isBin := n.(*ast.BinaryExpr)
				if !isBin || be.Op != token.NEQ {
					return !ok2
				}
				if isObjIdent(pass, be.X, obj) && isNil(pass, be.Y) ||
					isObjIdent(pass, be.Y, obj) && isNil(pass, be.X) {
					ok2 = true
				}
				return !ok2
			})
			if ok2 {
				return true
			}
		}
		return false
	}

	var stack []ast.Node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
					recv := framework.Named(s.Recv())
					if recv != nil && gated[framework.TypeKey(recv)] {
						switch x := ast.Unparen(sel.X).(type) {
						case *ast.Ident:
							obj := pass.TypesInfo.Uses[x]
							if obj == nil || !gatedHere(stack, obj, call.Pos()) {
								pass.Reportf(call.Pos(),
									"call to %s.%s outside a nil gate; use `if %s != nil { ... }` or an early `if %s == nil { return }`",
									recv.Obj().Name(), sel.Sel.Name, x.Name, x.Name)
							}
						default:
							pass.Reportf(call.Pos(),
								"call to %s.%s on an unbound expression; bind the tracer first: if lc := reg.Lifecycle(); lc != nil { ... }",
								recv.Obj().Name(), sel.Sel.Name)
						}
					}
				}
			}
		}
		stack = append(stack, n)
		return true
	}
	ast.Inspect(fd.Body, walk)
}

func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}
