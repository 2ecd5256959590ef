package hfetch

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hfetch/internal/config"
)

// TestDocsMatchCode holds the code and its two contract documents to
// each other, so neither side drifts silently:
//   - every hfetch_* family registered through a Registry method has a
//     row in DESIGN.md's exported-metrics table, and every row is still
//     registered somewhere;
//   - README.md's configuration table has one row for every top-level
//     json key of internal/config's Config, and each row names such a
//     key, a real hfetch.Config field (or "—") and, when it lists one, a
//     real cmd/hfetchd flag;
//   - every cmd/hfetchd flag is mentioned in README.md.
//
// The Go side is read with go/parser over the module's non-test files
// (benchmark/ and testdata excluded); a name given as a package-level
// string constant resolves to its value. Every failure names the
// markdown line or the Go line it is about.
func TestDocsMatchCode(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Package-level string constants, keyed by package name and name.
	consts := map[string]string{}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if i < len(vs.Values) {
						if s, ok := stringLit(vs.Values[i]); ok {
							consts[f.Name.Name+"."+id.Name] = s
						}
					}
				}
			}
		}
	}
	nameOf := func(f *ast.File, e ast.Expr) (string, bool) {
		switch e := e.(type) {
		case *ast.Ident:
			s, ok := consts[f.Name.Name+"."+e.Name]
			return s, ok
		case *ast.SelectorExpr:
			if pkg, ok := e.X.(*ast.Ident); ok {
				s, ok := consts[pkg.Name+"."+e.Sel.Name]
				return s, ok
			}
		}
		return stringLit(e)
	}

	regMethods := map[string]bool{"Counter": true, "CounterFunc": true, "Gauge": true, "GaugeFunc": true,
		"Histogram": true, "CounterVec": true, "GaugeVec": true, "HistVec": true}
	flagFuncs := map[string]bool{"Bool": true, "Int": true, "Int64": true, "Uint": true,
		"Uint64": true, "Float64": true, "String": true, "Duration": true}
	metrics := map[string]token.Position{} // family -> first registration
	flags := map[string]token.Position{}   // daemon flag -> registration
	for _, f := range files {
		daemon := filepath.ToSlash(filepath.Dir(fset.Position(f.Pos()).Filename)) == "cmd/hfetchd"
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name, ok := nameOf(f, call.Args[0])
			if !ok {
				return true
			}
			pos := fset.Position(call.Args[0].Pos())
			if regMethods[sel.Sel.Name] && strings.HasPrefix(name, "hfetch_") {
				if _, seen := metrics[name]; !seen {
					metrics[name] = pos
				}
			}
			if x, ok := sel.X.(*ast.Ident); ok && daemon && x.Name == "flag" && flagFuncs[sel.Sel.Name] {
				flags[name] = pos
			}
			return true
		})
	}
	if len(metrics) == 0 || len(flags) == 0 {
		t.Fatalf("found %d metric families and %d daemon flags; the walk missed the tree", len(metrics), len(flags))
	}

	// The daemon's top-level JSON keys; tiers, pfs and files are one each.
	knobs := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(config.Config{})) {
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "" && name != "-" {
			knobs[name] = true
		}
	}

	// DESIGN.md's metrics table against the registrations.
	design := readDoc(t, "DESIGN.md")
	metricRow := regexp.MustCompile("^\\| `(hfetch_[a-z0-9_]+)(?:\\{[^}]*\\})?` \\|")
	documented := map[string]int{}
	for i, line := range design {
		if m := metricRow.FindStringSubmatch(line); m != nil {
			if _, seen := documented[m[1]]; !seen {
				documented[m[1]] = i + 1
			}
		}
	}
	var problems []string
	for name, pos := range metrics {
		if _, ok := documented[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: metric family %q is registered but DESIGN.md's exported-metrics table has no row for it", pos, name))
		}
	}
	for name, line := range documented {
		if _, ok := metrics[name]; !ok {
			problems = append(problems, fmt.Sprintf("DESIGN.md:%d: documents metric family %q but nothing registers it", line, name))
		}
	}

	// README.md's configuration table and flag mentions.
	readme := readDoc(t, "README.md")
	knobRow := regexp.MustCompile("^\\| `([a-z0-9_]+)`(?: / `-([a-z0-9-]+)`)? \\| (?:`([A-Za-z][A-Za-z0-9.]*)`|—) \\|")
	rowOf := map[string]int{}
	for i, line := range readme {
		m := knobRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if prev, dup := rowOf[m[1]]; dup {
			problems = append(problems, fmt.Sprintf("README.md:%d: configuration table repeats key %q (first at line %d)", i+1, m[1], prev))
		}
		rowOf[m[1]] = i + 1
		if !knobs[m[1]] {
			problems = append(problems, fmt.Sprintf("README.md:%d: configuration table names key %q but internal/config's Config has no such top-level json tag", i+1, m[1]))
		}
		if _, ok := flags[m[2]]; m[2] != "" && !ok {
			problems = append(problems, fmt.Sprintf("README.md:%d: configuration table lists flag -%s but cmd/hfetchd does not register it", i+1, m[2]))
		}
		if m[3] != "" && !hasField(reflect.TypeOf(Config{}), m[3]) {
			problems = append(problems, fmt.Sprintf("README.md:%d: configuration table names Config field %q but hfetch.Config has no such field", i+1, m[3]))
		}
	}
	for key := range knobs {
		if _, ok := rowOf[key]; !ok {
			problems = append(problems, fmt.Sprintf("internal/config: JSON key %q has no row in README.md's configuration table", key))
		}
	}
	text := strings.Join(readme, "\n")
	for name, pos := range flags {
		mention := regexp.MustCompile(`(^|[\s` + "`" + `(])-` + regexp.QuoteMeta(name) + `($|[^a-z0-9-])`)
		if !mention.MatchString(text) {
			problems = append(problems, fmt.Sprintf("%s: daemon flag -%s is not mentioned anywhere in README.md", pos, name))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// hasField reports whether t has the exported field path ("Gateway.TenantRPS").
func hasField(t reflect.Type, path string) bool {
	for _, name := range strings.Split(path, ".") {
		if t.Kind() != reflect.Struct {
			return false
		}
		f, ok := t.FieldByName(name)
		if !ok || !token.IsExported(name) {
			return false
		}
		t = f.Type
	}
	return true
}

func readDoc(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(raw), "\n")
}
