// Command hfetchlint runs the repo's custom static analyzers — the
// mechanical form of ARCHITECTURE.md's concurrency and hot-path rules.
//
// Usage:
//
//	go run ./cmd/hfetchlint [-analyzers lockorder,hotpath] [-list] [-json] [packages]
//
// With no packages it analyzes ./... . Exit status is 1 when any
// finding survives //lint:allow filtering, 2 on usage or load errors.
// -json emits one object per finding on stdout instead of the
// file:line:col text form. See STATIC_ANALYSIS.md for each analyzer's
// rule and the annotation grammar.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"hfetch/internal/analysis/bufown"
	"hfetch/internal/analysis/driftcheck"
	"hfetch/internal/analysis/framework"
	"hfetch/internal/analysis/goleak"
	"hfetch/internal/analysis/hotpath"
	"hfetch/internal/analysis/lockorder"
	"hfetch/internal/analysis/nilsafe"
)

var suite = []*framework.Analyzer{
	lockorder.Analyzer,
	hotpath.Analyzer,
	nilsafe.Analyzer,
	bufown.Analyzer,
	goleak.Analyzer,
	driftcheck.Analyzer,
}

// finding is the -json output shape, one object per diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	var (
		list    = flag.Bool("list", false, "list analyzers and exit")
		names   = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
		strict  = flag.Bool("strict-types", false, "fail on typechecking errors instead of warning")
		jsonOut = flag.Bool("json", false, "emit findings as JSON objects, one per line")
	)
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := suite
	if *names != "" {
		byName := make(map[string]*framework.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, n := range strings.Split(*names, ",") {
			a, ok := byName[strings.TrimSpace(n)]
			if !ok {
				fmt.Fprintf(os.Stderr, "hfetchlint: unknown analyzer %q\n", n)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := framework.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hfetchlint: %v\n", err)
		os.Exit(2)
	}
	typeErrs := 0
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "hfetchlint: type error in %s: %v\n", p.PkgPath, te)
			typeErrs++
		}
	}
	if typeErrs > 0 && *strict {
		os.Exit(2)
	}

	diags, err := framework.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hfetchlint: %v\n", err)
		os.Exit(2)
	}
	if len(diags) == 0 {
		return
	}
	fset := pkgs[0].Fset
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			if err := enc.Encode(finding{
				File:     pos.Filename,
				Line:     pos.Line,
				Column:   pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}); err != nil {
				fmt.Fprintf(os.Stderr, "hfetchlint: %v\n", err)
				os.Exit(2)
			}
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
	os.Exit(1)
}
