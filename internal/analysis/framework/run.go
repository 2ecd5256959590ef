package framework

import "fmt"

// Run executes every analyzer over every package and returns the
// surviving findings, ordered by position. //lint:allow suppressions
// are applied here; malformed suppressions surface as "allowsyntax"
// findings so they cannot silently disable a check.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		rules := collectAllows(pkg.Fset, pkg.Files, func(d Diagnostic) {
			raw = append(raw, d)
		})
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d Diagnostic) {
				d.Analyzer = name
				raw = append(raw, d)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
		seen := make(map[string]bool)
		for _, d := range raw {
			if suppressed(pkg.Fset, rules, d) {
				continue
			}
			key := fmt.Sprintf("%v|%s|%s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			if seen[key] {
				continue
			}
			seen[key] = true
			all = append(all, d)
		}
	}
	if len(pkgs) > 0 {
		SortDiagnostics(pkgs[0].Fset, all)
	}
	return all, nil
}
