// Package suite is the natlevet roster and the loop that runs it: the
// one place cmd/natlevet and the suite's mutation tests take their
// analyzers from, so a rule dropped from the roster is a rule whose
// mutation stops firing.
package suite

import (
	"fmt"
	"go/token"

	"natle/internal/analysis"
	"natle/internal/analysis/atomicsafe"
	"natle/internal/analysis/exhaustive"
	"natle/internal/analysis/falseshare"
	"natle/internal/analysis/hotalloc"
	"natle/internal/analysis/load"
	"natle/internal/analysis/lockorder"
)

// Analyzers is the natlevet roster, alphabetical.
var Analyzers = []*analysis.Analyzer{
	atomicsafe.Analyzer,
	exhaustive.Analyzer,
	falseshare.Analyzer,
	hotalloc.Analyzer,
	lockorder.Analyzer,
}

// A Finding is one diagnostic that survived suppression, with its
// position resolved.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Check lints the natlevet directives of every package against the
// full roster, then runs each of the given analyzers over it, and
// returns the surviving findings in package order.
func Check(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	known := make(map[string]bool, len(Analyzers))
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	var out []Finding
	for _, p := range pkgs {
		report := func(d analysis.Diagnostic) {
			out = append(out, Finding{Pos: p.Fset.Position(d.Pos), Analyzer: d.Analyzer, Message: d.Message})
		}
		analysis.LintDirectives(p.Fset, p.Syntax, known, report)
		allow := analysis.BuildAllowlist(p.Fset, p.Syntax)
		for _, a := range analyzers {
			if err := a.Run(analysis.NewPass(a, p.Fset, p.Syntax, p.Types, p.TypesInfo, allow, report)); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, p.PkgPath, err)
			}
		}
	}
	return out, nil
}
