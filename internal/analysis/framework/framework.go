// Package framework is a minimal, dependency-free analog of
// golang.org/x/tools/go/analysis: just enough driver machinery to run
// hfetch's custom analyzers (see internal/analysis/...) over typechecked
// packages of this module. The x/tools framework is deliberately not
// imported — the repo builds offline with the standard library only — but
// the shapes (Analyzer, Pass, Diagnostic) mirror it closely enough that
// porting an analyzer between the two is mechanical.
//
// Packages are loaded by shelling out to `go list -export` and
// typechecking each target package from source against the compiler's
// export data (the same strategy go/packages uses), so analyzers see
// full type information including cross-package method sets.
//
// Findings can be suppressed with an annotation on the offending line
// (or the line above it, for a whole-line comment):
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; a bare suppression is itself a finding.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Run inspects a single package through
// its Pass and reports findings via Pass.Report.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow
	// annotations. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of the rule being enforced.
	Doc string
	// Run performs the analysis on one package.
	Run func(*Pass) error
}

// Pass carries one package's ASTs and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test source files, with
	// comments.
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// TypesInfo records types, objects and selections for every
	// expression in Files.
	TypesInfo *types.Info
	// Report delivers one finding. The driver handles //lint:allow
	// filtering, deduplication and ordering; analyzers just report.
	Report func(Diagnostic)
}

// Reportf is a convenience formatter around Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the driver
}

// Named returns the named type of t, unwrapping pointers and aliases;
// nil when t does not resolve to one.
func Named(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// TypeKey renders a named type as "pkgpath.Name" ("" for nil), the form
// the analyzer manifests use. Unexported types keep their package path,
// so manifests can name them even though other packages cannot.
func TypeKey(n *types.Named) string {
	if n == nil {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// ReceiverNamed returns the named type of a method's receiver (through
// pointers), or nil for functions.
func ReceiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return Named(sig.Recv().Type())
}

// CalleeFunc resolves the called function or method of a CallExpr via
// type information; nil for calls through plain function values,
// conversions and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		// Package-qualified call: pkg.Func.
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// SortDiagnostics orders findings by position for stable output.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return ds[i].Analyzer < ds[j].Analyzer
	})
}
