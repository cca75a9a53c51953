// Package txnsafe defines the natlevet analyzer guarding transaction
// bodies. htm.System.Try runs its body func; an aborted attempt's body
// runs on to its end with every Read returning 0 and every Write
// dropped. The elision layers (tle/natle/cohort Lock.Critical) build on
// the same mechanism and re-run the body. Inside such a body:
//
//   - a go statement escapes the abortable region — the goroutine's
//     effects survive an abort that was supposed to discard them, and
//     the simulator's cooperative scheduler never runs real
//     goroutines deterministically anyway;
//   - channel operations (send, receive, select, close, range-over-
//     channel) block or publish state across a region that may run
//     on zeros after an abort and be re-executed an arbitrary number
//     of times.
package txnsafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"natle/internal/analysis"
)

// Analyzer flags abort-unsafe operations in transaction bodies.
var Analyzer = &analysis.Analyzer{
	Name: "txnsafe",
	Doc: `forbid go and channel operations in transaction bodies

Closures passed to htm.System.Try or to the Critical methods of the
lock-elision layers run on to their end after an abort and may be
re-run any number of times; go statements and channel operations break
that contract. Bodies that deliberately probe the abort machinery
itself carry //natlevet:allow txnsafe(reason).`,
	Run: run,
}

// helperPkgs are the packages whose Try/Critical methods accept a
// transaction body.
var helperPkgs = map[string]bool{
	"natle/internal/htm":    true,
	"natle/internal/tle":    true,
	"natle/internal/natle":  true,
	"natle/internal/cohort": true,
}

// bodyMethods are the method names whose func() arguments are
// transaction bodies.
var bodyMethods = map[string]bool{"Try": true, "Critical": true}

func run(pass *analysis.Pass) error {
	if analysis.PackageBackend(pass.Files) == "native" {
		// Native critical sections keep their own abort state
		// (internal/native's dead attempts) and run real goroutines by
		// design; the simulator's contract does not apply.
		return nil
	}
	reported := make(map[token.Pos]bool) // dedup when bodies nest
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !bodyMethods[fn.Name()] || !helperPkgs[fn.Pkg().Path()] {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok || !isBodyFunc(pass.TypesInfo.TypeOf(lit)) {
					continue
				}
				checkBody(pass, lit.Body, reported)
			}
			return true
		})
	}
	return nil
}

// isBodyFunc reports whether t is func() — the transaction-body shape.
func isBodyFunc(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

func checkBody(pass *analysis.Pass, body ast.Node, reported map[token.Pos]bool) {
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "go statement inside a transaction body: the goroutine escapes the abortable region and its effects survive the attempt's abort")
		case *ast.SendStmt:
			report(n.Pos(), "channel send inside a transaction body: it publishes state from a region that may be aborted and re-executed")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive inside a transaction body: it can block and consumes state from a region that may be aborted and re-executed")
			}
		case *ast.SelectStmt:
			report(n.Pos(), "select inside a transaction body: channel operations break the abort contract of a region that may be re-executed")
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(n.Pos(), "range over a channel inside a transaction body: it can block across an abortable region")
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					report(n.Pos(), "close of a channel inside a transaction body: it publishes state from a region that may be aborted and re-executed")
				}
			}
		}
		return true
	})
}
