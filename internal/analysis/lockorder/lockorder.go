// Package lockorder defines the natlevet analyzer guarding the
// optimistic read sections of //natlevet:backend native packages.
//
// A function marked //natlevet:seqlock (internal/native's TLE.try) is
// an optimistic read section: it runs concurrently with writers and is
// re-executed on conflict, so blocking on a lock inside one can wedge
// forever — a writer holding the sequence odd may be waiting for that
// same lock. No acquisition may be reachable from a marked function:
// neither directly nor through a chain of same-package calls.
//
// Acquisitions are Lock/RLock calls on sync.Mutex/RWMutex values and
// calls to a package-local lock helper's Critical(ctx, body) method
// (native.Mutex, Spin, TLE, NATLE).
package lockorder

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"natle/internal/analysis"
)

// Analyzer checks native-backend packages for lock acquisitions
// reachable from seqlock read sections.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: `forbid lock acquisition inside seqlock read sections (native packages)

In //natlevet:backend native packages, no sync.Mutex/RWMutex Lock and
no package-local Critical-style lock helper may be reachable, directly
or through same-package calls, from a //natlevet:seqlock function.
Intentional exceptions carry //natlevet:allow lockorder(reason).`,
	Run: run,
}

// summary is what one function body does with locks: the locks it
// acquires itself and the same-package functions it calls, each with
// its first call site. A lock is a sync mutex variable (*types.Var) or
// a package-local Critical-helper lock type (*types.TypeName).
type summary struct {
	acquires map[types.Object]ast.Node
	callees  map[*types.Func]ast.Node
}

type checker struct {
	pass *analysis.Pass
}

func run(pass *analysis.Pass) error {
	marked, strays := analysis.MarkedFuncs(pass.Fset, pass.Files, analysis.SeqlockDirective)
	for _, pos := range strays {
		pass.Reportf(pos, "%s is not attached to a function declaration or literal", analysis.SeqlockDirective)
	}
	if analysis.PackageBackend(pass.Files) != "native" {
		for n := range marked {
			pass.Reportf(n.Pos(), "%s outside a //natlevet:backend native package: lockorder only checks native packages", analysis.SeqlockDirective)
		}
		return nil
	}
	if len(marked) == 0 {
		return nil
	}

	c := &checker{pass: pass}
	funcs := make(map[*types.Func]*summary)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				funcs[fn] = c.scan(fd.Body)
			}
		}
	}
	star := transitiveAcquires(funcs)

	for n := range marked {
		section := "seqlock read section"
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			section += " " + fn.Name.Name
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body == nil {
			continue
		}
		sum := c.scan(body)
		for lock, at := range sum.acquires {
			pass.Reportf(at.Pos(),
				"%s acquires %s: optimistic reads must never block on a lock", section, lockName(lock))
		}
		for callee, at := range sum.callees {
			if locks := star[callee]; len(locks) > 0 {
				pass.Reportf(at.Pos(),
					"%s calls %s, which acquires %s: optimistic reads must never block on a lock",
					section, callee.Name(), names(locks))
			}
		}
	}
	return nil
}

// scan summarizes the lock acquisitions and same-package calls
// anywhere in body, function literals included.
func (c *checker) scan(body *ast.BlockStmt) *summary {
	s := &summary{
		acquires: make(map[types.Object]ast.Node),
		callees:  make(map[*types.Func]ast.Node),
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var acquired types.Object
		if tn := c.criticalCall(call); tn != nil {
			acquired = tn
		} else if v := c.syncLockCall(call); v != nil {
			acquired = v
		} else if fn := c.calleeOf(call); fn != nil {
			if _, ok := s.callees[fn]; !ok {
				s.callees[fn] = call
			}
		}
		if acquired != nil {
			if _, ok := s.acquires[acquired]; !ok {
				s.acquires[acquired] = call
			}
		}
		return true
	})
	return s
}

// lockName names a lock in a diagnostic.
func lockName(lock types.Object) string {
	if v, ok := lock.(*types.Var); ok && v.IsField() {
		return "field " + v.Name()
	}
	return lock.Name()
}

func receiverTypeName(t types.Type) *types.TypeName {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// syncLockCall classifies x.Lock/RLock calls on sync.Mutex/RWMutex
// values, returning the lock's variable identity.
func (c *checker) syncLockCall(call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || (fn.Name() != "Lock" && fn.Name() != "RLock") {
		return nil
	}
	return analysis.AddrTarget(c.pass.TypesInfo, sel.X)
}

// criticalCall classifies recv.Critical(..., body) calls on
// package-local lock helpers, returning the helper's type.
func (c *checker) criticalCall(call *ast.CallExpr) *types.TypeName {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Critical" || len(call.Args) == 0 {
		return nil
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() != c.pass.Pkg {
		return nil
	}
	tn := receiverTypeName(c.pass.TypesInfo.TypeOf(sel.X))
	if tn == nil || tn.Pkg() != c.pass.Pkg {
		return nil
	}
	return tn
}

// calleeOf resolves a call to a same-package function or method.
func (c *checker) calleeOf(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = c.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = c.pass.TypesInfo.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() != c.pass.Pkg {
		return nil
	}
	return fn
}

// transitiveAcquires computes, for every function, the set of locks
// acquired by it or anything it (transitively) calls in this package.
func transitiveAcquires(funcs map[*types.Func]*summary) map[*types.Func]map[types.Object]bool {
	star := make(map[*types.Func]map[types.Object]bool, len(funcs))
	for fn, s := range funcs {
		m := make(map[types.Object]bool, len(s.acquires))
		for n := range s.acquires {
			m[n] = true
		}
		star[fn] = m
	}
	for changed := true; changed; {
		changed = false
		for fn, s := range funcs {
			m := star[fn]
			for callee := range s.callees {
				for n := range star[callee] {
					if !m[n] {
						m[n] = true
						changed = true
					}
				}
			}
		}
	}
	return star
}

// names lists the locks of a set, sorted, for a stable message.
func names(locks map[types.Object]bool) string {
	var out []string
	for lock := range locks {
		out = append(out, lockName(lock))
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}
