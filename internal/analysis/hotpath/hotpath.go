// Package hotpath enforces the per-event allocation and clock rules on
// functions annotated with a `//hfetch:hotpath` directive in their doc
// comment (monitor drain, auditor scoring, server read, wire codecs,
// telemetry record). Inside an annotated function the analyzer flags:
//
//   - any call into fmt (Sprintf on the audit loop was the original
//     sin; strconv.Append* is the sanctioned replacement);
//   - any call into reflect or encoding/gob (reflection-driven
//     encoders; wire heads on hot paths are hand-written codecs);
//   - time.Now / time.Since / time.Until not dominated by the
//     telemetry sampling gate — an if whose condition contains a
//     TimeSample() call or a bool assigned from one;
//   - map allocation (make(map...) or a map composite literal);
//   - function literals (a closure allocation per event);
//   - no-copy rule: `make([]byte, n)` with a non-constant size (a
//     per-read payload allocation — draw from the slab, tiers.SlabGet)
//     and `copy()` between plain byte slices (a payload memcpy — serve
//     pinned tier views instead). Constant-size scratch buffers and
//     copies where either operand is array-backed (fixed-size encode
//     scratch like `arg[0:8]`) are exempt.
//
// Deliberate exceptions — an error path that formats once per failure,
// a clock fallback, an API whose contract is filling the caller's
// buffer — carry a //lint:allow hotpath annotation.
package hotpath

import (
	"go/ast"
	"go/types"

	"hfetch/internal/analysis/framework"
)

// Analyzer is the hotpath rule set.
var Analyzer = &framework.Analyzer{
	Name: "hotpath",
	Doc:  "forbid fmt/reflect/gob/unsampled clocks/map+closure allocation in //hfetch:hotpath functions",
	Run:  run,
}

const directive = "hfetch:hotpath"

// Annotated reports whether a function declaration carries the
// //hfetch:hotpath directive. Exported for use by other analyzers and
// the docs tooling.
func Annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//"+directive {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !Annotated(fd) {
				continue
			}
			check(pass, fd)
		}
	}
	return nil
}

func check(pass *framework.Pass, fd *ast.FuncDecl) {
	timed := timedVars(pass, fd.Body)
	var stack []ast.Node
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocated in hot path; hoist it or restructure")
			return false // interior judged with the closure itself
		case *ast.CompositeLit:
			if t, ok := pass.TypesInfo.Types[n]; ok {
				if _, isMap := t.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map literal allocated per event in hot path")
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n, stack, timed)
		}
		stack = append(stack, n)
		return true
	}
	ast.Inspect(fd.Body, walk)
}

func checkCall(pass *framework.Pass, call *ast.CallExpr, stack []ast.Node, timed map[types.Object]bool) {
	// Builtins: make(map[...]...) per event, non-constant make([]byte),
	// and payload copy().
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make":
			if len(call.Args) == 0 {
				return
			}
			t, ok := pass.TypesInfo.Types[call.Args[0]]
			if !ok || !t.IsType() {
				return
			}
			if _, isMap := t.Type.Underlying().(*types.Map); isMap {
				pass.Reportf(call.Pos(), "map allocated per event in hot path")
			} else if isByteSlice(t.Type) && len(call.Args) > 1 && !isConstExpr(pass, call.Args[1]) {
				pass.Reportf(call.Pos(), "per-read []byte allocation in hot path; draw segment-sized buffers from the slab (tiers.SlabGet)")
			}
			return
		case "copy":
			if b, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "copy" {
				break
			}
			if len(call.Args) == 2 && isPayloadCopy(pass, call.Args[0], call.Args[1]) {
				pass.Reportf(call.Pos(), "payload copy() in hot path; serve pinned tier views (tiers.Store.View/ReadVec) instead")
			}
			return
		}
	}
	fn := framework.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		// Methods ride along with the package-level entry point that
		// produced their receiver (reflect.TypeOf(v).Name() is one
		// finding at TypeOf, not two).
		return
	}
	switch fn.Pkg().Path() {
	case "fmt":
		pass.Reportf(call.Pos(), "fmt.%s in hot path; use strconv.Append* or precomputed strings", fn.Name())
	case "reflect":
		pass.Reportf(call.Pos(), "reflect.%s in hot path", fn.Name())
	case "encoding/gob":
		pass.Reportf(call.Pos(), "gob.%s in hot path; wire heads on hot paths are hand-written append/parse codecs", fn.Name())
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			if !sampleGated(pass, stack, timed) {
				pass.Reportf(call.Pos(),
					"unsampled time.%s in hot path; gate it behind TimeSample() (see telemetry.Registry.TimeSample)",
					fn.Name())
			}
		}
	}
}

// isByteSlice reports whether t's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isConstExpr reports whether e is a compile-time constant (a fixed-size
// scratch buffer, not a per-read payload sizing).
func isConstExpr(pass *framework.Pass, e ast.Expr) bool {
	t, ok := pass.TypesInfo.Types[e]
	return ok && t.Value != nil
}

// isPayloadCopy reports whether a copy() call moves payload bytes: both
// operands are plain byte slices and neither is carved from a fixed-size
// array (binary-encode scratch like `copy(arg[0:8], tsb[:])` stays
// legal).
func isPayloadCopy(pass *framework.Pass, dst, src ast.Expr) bool {
	if !isByteSliceExpr(pass, dst) || !isByteSliceExpr(pass, src) {
		return false
	}
	return !arrayBacked(pass, dst) && !arrayBacked(pass, src)
}

func isByteSliceExpr(pass *framework.Pass, e ast.Expr) bool {
	t, ok := pass.TypesInfo.Types[e]
	return ok && t.Type != nil && isByteSlice(t.Type)
}

// arrayBacked reports whether e slices a fixed-size array (directly or
// through a pointer).
func arrayBacked(pass *framework.Pass, e ast.Expr) bool {
	se, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok {
		return false
	}
	t, ok := pass.TypesInfo.Types[se.X]
	if !ok || t.Type == nil {
		return false
	}
	switch u := t.Type.Underlying().(type) {
	case *types.Array:
		return true
	case *types.Pointer:
		_, isArr := u.Elem().Underlying().(*types.Array)
		return isArr
	}
	return false
}

// timedVars collects bool variables assigned from a TimeSample() call,
// e.g. `timed := s.tele.TimeSample()`.
func timedVars(pass *framework.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isTimeSampleCall(rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					out[obj] = true
				} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

func isTimeSampleCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "TimeSample"
}

// sampleGated reports whether any enclosing if-condition establishes
// the sampling gate: it contains a TimeSample() call or reads a bool
// assigned from one.
func sampleGated(pass *framework.Pass, stack []ast.Node, timed map[types.Object]bool) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		gated := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isTimeSampleCall(n) {
					gated = true
				}
			case *ast.Ident:
				if obj := pass.TypesInfo.Uses[n]; obj != nil && timed[obj] {
					gated = true
				}
			}
			return !gated
		})
		if gated {
			return true
		}
	}
	return false
}
