// Command natlevet is the repo's static analysis suite: a vet-style
// multichecker running the roster of internal/analysis/suite over the
// packages matching its arguments (default ./...). It exits nonzero
// when any diagnostic survives suppression, so `make lint` and CI gate
// on a natlevet-clean tree.
//
// Usage:
//
//	natlevet [-list] [-json] [-<analyzer>=false ...] [packages]
//
// Each analyzer guards an invariant the compiler cannot see; run
// `natlevet -list` for the roster, and see README "Static analysis"
// for which paper phenomenon breaks when each invariant is violated.
// Findings are suppressed per line with
// //natlevet:allow <analyzer>(reason). With -json the findings are
// written to stdout as a JSON array of {file,line,col,analyzer,
// message} records (CI uploads them as a diffable artifact); the exit
// status is unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"natle/internal/analysis"
	"natle/internal/analysis/load"
	"natle/internal/analysis/suite"
)

func main() {
	listOnly := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "write findings to stdout as a JSON array")
	enabled := make(map[string]*bool, len(suite.Analyzers))
	for _, a := range suite.Analyzers {
		enabled[a.Name] = flag.Bool(a.Name, true,
			fmt.Sprintf("run the %s analyzer (%s)", a.Name, firstLine(a.Doc)))
	}
	flag.Parse()

	if *listOnly {
		for _, a := range suite.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	patterns := flag.Args()
	pkgs, err := load.Packages(".", nil, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "natlevet: %v\n", err)
		os.Exit(2)
	}
	var run []*analysis.Analyzer
	for _, a := range suite.Analyzers {
		if *enabled[a.Name] {
			run = append(run, a)
		}
	}
	findings, err := suite.Check(pkgs, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "natlevet: %v\n", err)
		os.Exit(2)
	}
	diags := make([]jsonDiag, 0, len(findings))
	for _, f := range findings {
		diags = append(diags, jsonDiag{
			File: relative(f.Pos.Filename), Line: f.Pos.Line, Col: f.Pos.Column,
			Analyzer: f.Analyzer, Message: f.Message,
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "natlevet: writing json: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: %s (%s)\n", d.File, d.Line, d.Col, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "natlevet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonDiag is one finding, and the -json record shape: sorted by
// position, stable across runs so CI artifacts diff cleanly between
// PRs.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func relative(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
