// Package nilsafe enforces the telemetry call-site gate: outside the
// telemetry package, a method call on a gated type
// (*telemetry.Lifecycle, *telemetry.Watchdog) must sit behind a nil
// check. The lifecycle tracer is fetched through an atomic pointer and
// the idiom skips argument construction when tracing is off; the
// watchdog is nil when disabled, and gating keeps probe closures from
// being built for nothing:
//
//	if lc := reg.Lifecycle(); lc != nil { lc.OnReadHit(...) }
//
// or an early `if lc == nil { return }` guard earlier in the function.
// Calling through the accessor directly (reg.Lifecycle().OnX(...)) is
// always flagged.
//
// The other half of the contract, that every exported method of a
// nil-safe telemetry type tolerates a nil receiver, is behaviour, and
// telemetry's TestNilReceivers checks it by calling each one.
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
	// Pkg is the package declaring the gated types; calls inside it
	// are not checked.
	Pkg string
	// Gated are type names in Pkg whose methods must be nil-gated at
	// call sites outside Pkg.
	Gated []string
}

// DefaultConfig covers hfetch/internal/telemetry.
func DefaultConfig() Config {
	return Config{
		Pkg:   "hfetch/internal/telemetry",
		Gated: []string{"Lifecycle", "Watchdog"},
	}
}

// Analyzer checks the repo against DefaultConfig.
var Analyzer = NewAnalyzer(DefaultConfig())

// NewAnalyzer builds a nilsafe analyzer for cfg.
func NewAnalyzer(cfg Config) *framework.Analyzer {
	return &framework.Analyzer{
		Name: "nilsafe",
		Doc:  "gate calls on the optional lifecycle tracer and watchdog behind a nil check",
		Run:  func(pass *framework.Pass) error { return run(pass, cfg) },
	}
}

func run(pass *framework.Pass, cfg Config) error {
	if pass.Pkg == nil || pass.Pkg.Path() == cfg.Pkg {
		return nil
	}
	gated := make(map[string]bool, len(cfg.Gated))
	for _, n := range cfg.Gated {
		gated[cfg.Pkg+"."+n] = true
	}
	checkFuncs(pass, gated)
	return nil
}

func isObjIdent(pass *framework.Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}

func isNil(pass *framework.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

func checkFuncs(pass *framework.Pass, gated map[string]bool) {
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
