// Package exhaustive defines the natlevet analyzer keeping enum
// handling complete as constants are added: a switch over a repo enum
// (a defined integer/string type with a package-scope constant block,
// e.g. telemetry.Code or telemetry.Kind) must either cover every
// member or carry a default case.
//
// Sentinel constants closing an iota block (NumCodes, NumKinds,
// MaxBatch) size arrays; switches need not handle them.
package exhaustive

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"natle/internal/analysis"
	"natle/internal/analysis/enums"
)

// Analyzer flags incomplete enum switches.
var Analyzer = &analysis.Analyzer{
	Name: "exhaustive",
	Doc: `require enum switches to cover every constant or carry a default

A switch over a defined constant-block type must handle every member
or have a default. Deliberately partial switches carry
//natlevet:allow exhaustive(reason).`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitch(pass, sw)
			return true
		})
	}
	return nil
}

// enumType returns the named enum type of a switch tag when the type
// is declared in this module (or the package under analysis, which is
// how fixtures exercise the rule), or nil.
func enumType(pass *analysis.Pass, tag ast.Expr) *types.Named {
	t := pass.TypesInfo.TypeOf(tag)
	if t == nil {
		return nil
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil // universe types (error, ...)
	}
	if obj.Pkg() != pass.Pkg && !strings.HasPrefix(obj.Pkg().Path(), "natle") {
		return nil // stdlib and foreign enums are not ours to legislate
	}
	switch named.Underlying().(type) {
	case *types.Basic:
		return named
	}
	return nil
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	named := enumType(pass, sw.Tag)
	if named == nil {
		return
	}
	members, _ := enums.Members(named.Obj().Pkg(), named)
	if len(members) < 2 {
		return // one constant is a named value, not an enum
	}
	var covered []constant.Value
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // default case: partial coverage is deliberate
		}
		for _, e := range cc.List {
			tv, ok := pass.TypesInfo.Types[e]
			if !ok || tv.Value == nil {
				return // non-constant case: coverage is dynamic, not checkable
			}
			covered = append(covered, tv.Value)
		}
	}
	var missing []string
	for _, m := range members {
		found := false
		for _, v := range covered {
			if constant.Compare(m.Val(), token.EQL, v) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, m.Name())
		}
	}
	if len(missing) > 0 {
		pass.Reportf(sw.Pos(),
			"switch over %s.%s is missing cases %s: add them or a default case",
			named.Obj().Pkg().Name(), named.Obj().Name(), strings.Join(missing, ", "))
	}
}
