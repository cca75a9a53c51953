// Package analysis is the vocabulary of natlevet, the repo's static
// analysis suite: Analyzer, Pass and Diagnostic mirror the shape of
// golang.org/x/tools/go/analysis so each checker reads like a standard
// vet analyzer, but the implementation is dependency-free — the build
// environment has no module proxy, so x/tools cannot be fetched and
// the loader (package load) instead type-checks against the compiler's
// own export data via `go list -export`. If x/tools ever becomes
// available, the analyzers port over by swapping this import.
//
// The suite exists because the reproduction rests on invariants the
// compiler and the tests cannot see:
//
//   - words the code treats as atomic must be accessed only atomically
//     (atomicsafe), and concurrently written words must not share a
//     cache line (falseshare);
//   - measured fast paths must not allocate (hotalloc);
//   - an optimistic seqlock read section must never block on a lock
//     (lockorder);
//   - enum switches must stay complete as constants are added
//     (exhaustive).
//
// Each rule earns its place with a row in package suite's mutation
// table: a real bug seeded into the real tree that the rule reports
// and no test catches.
//
// # Suppression
//
// A finding is silenced by an allow directive on the same line as the
// diagnostic or on the line directly above it:
//
//	//natlevet:allow hotalloc(one buffer per server lifetime)
//
// The parenthesized reason is mandatory; a directive without one is
// itself a diagnostic. Multiple analyzers may be listed in a single
// directive, comma-separated: //natlevet:allow a(why), b(why).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //natlevet:allow directives.
	Name string

	// Doc is the help text; the first line is the summary.
	Doc string

	// Run applies the analyzer to one package, reporting findings
	// through the pass.
	Run func(*Pass) error
}

// A Pass connects an Analyzer to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	allow  *Allowlist
	report func(Diagnostic)
}

// NewPass prepares a run of a over one package. The allowlist is
// shared across analyzers for the package (build it once with
// BuildAllowlist); report receives every non-suppressed diagnostic.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info, allow *Allowlist,
	report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer: a, Fset: fset, Files: files, Pkg: pkg,
		TypesInfo: info, allow: allow, report: report,
	}
}

// A Diagnostic is one finding, positioned within the fileset of the
// pass that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a finding unless an allow directive for this
// analyzer covers its line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.allow != nil {
		position := p.Fset.Position(pos)
		if p.allow.Allowed(p.Analyzer.Name, position.Filename, position.Line) {
			return
		}
	}
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// An Allow is one parsed name(reason) entry of an allow directive.
type Allow struct {
	Analyzer string
	Reason   string
}

// allowDirective is the comment prefix of a suppression.
const allowDirective = "//natlevet:allow"

// BackendDirective is the comment prefix of a package-level execution
// backend declaration. Packages default to the simulated backend; a
// package whose point is real execution (real goroutines over real
// locks — internal/native) declares
//
//	//natlevet:backend native
//
// once at package level, which selects it for lockorder, the one
// analyzer that checks only native packages. The others apply
// everywhere.
const BackendDirective = "//natlevet:backend"

// PercpuDirective marks a struct type whose instances are hammered
// concurrently by distinct threads or thread groups (per-CPU counter
// blocks, per-group decision words). The falseshare analyzer checks
// the annotated struct's field layout against 64-byte cache lines. The
// directive takes no arguments and sits in the type's doc comment.
const PercpuDirective = "//natlevet:percpu"

// HotpathDirective marks a function (declaration or literal) on a
// measured fast path — the native seqlock attempt path, telemetry
// record hooks, the service dequeue loop. The hotalloc analyzer
// forbids heap-allocating constructs inside it. The directive takes no
// arguments and sits in the function's doc comment (or on the line
// directly above a func literal).
const HotpathDirective = "//natlevet:hotpath"

// SeqlockDirective marks a function whose dynamic extent is an
// optimistic seqlock read section (internal/native's TLE.try): blocking
// lock acquisition inside it can wedge forever, because a writer that
// holds the sequence odd may be waiting for that same lock while the
// section fails validation and is re-executed an arbitrary number of
// times. The lockorder analyzer forbids
// acquisitions within it; the directive is only meaningful in
// //natlevet:backend native packages.
const SeqlockDirective = "//natlevet:seqlock"

// PackageBackend returns the backend declared by a BackendDirective in
// any of the package's files ("" when none is declared, i.e. the
// simulated default).
func PackageBackend(files []*ast.File) string {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, BackendDirective) {
					return strings.TrimSpace(strings.TrimPrefix(c.Text, BackendDirective))
				}
			}
		}
	}
	return ""
}

var allowEntryRE = regexp.MustCompile(`^([a-zA-Z][a-zA-Z0-9_-]*)\(([^()]*)\)$`)

// parseAllow parses the text of one allow directive comment. It
// returns nil and an error when the directive is malformed (missing
// reason, bad entry syntax).
func parseAllow(text string) ([]Allow, error) {
	body := strings.TrimSpace(strings.TrimPrefix(text, allowDirective))
	if body == "" {
		return nil, fmt.Errorf("natlevet:allow directive names no analyzer; use //natlevet:allow name(reason)")
	}
	var out []Allow
	for _, item := range splitTopLevel(body) {
		m := allowEntryRE.FindStringSubmatch(item)
		if m == nil {
			return nil, fmt.Errorf("malformed natlevet:allow entry %q; use name(reason)", item)
		}
		if strings.TrimSpace(m[2]) == "" {
			return nil, fmt.Errorf("natlevet:allow %s() has an empty reason; say why the invariant is safe to waive here", m[1])
		}
		out = append(out, Allow{Analyzer: m[1], Reason: strings.TrimSpace(m[2])})
	}
	return out, nil
}

// splitTopLevel splits comma-separated allow entries without breaking
// on commas inside the (reason) parentheses.
func splitTopLevel(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if last := strings.TrimSpace(s[start:]); last != "" {
		out = append(out, last)
	}
	return out
}

// An Allowlist indexes the allow directives of one package by file and
// line. A directive sanctions findings on its own line and on the line
// directly below it (covering both trailing-comment and
// line-above-the-statement placement).
type Allowlist struct {
	byLine map[lineKey][]Allow
}

type lineKey struct {
	file string
	line int
}

// BuildAllowlist collects the allow directives of the given files.
// Malformed directives are ignored here; LintDirectives reports them.
func BuildAllowlist(fset *token.FileSet, files []*ast.File) *Allowlist {
	al := &Allowlist{byLine: make(map[lineKey][]Allow)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowDirective) {
					continue
				}
				entries, err := parseAllow(c.Text)
				if err != nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, k := range []lineKey{
					{pos.Filename, pos.Line},
					{pos.Filename, pos.Line + 1},
				} {
					al.byLine[k] = append(al.byLine[k], entries...)
				}
			}
		}
	}
	return al
}

// Allowed reports whether a directive sanctions findings of the named
// analyzer at file:line.
func (al *Allowlist) Allowed(analyzer, file string, line int) bool {
	for _, a := range al.byLine[lineKey{file, line}] {
		if a.Analyzer == analyzer {
			return true
		}
	}
	return false
}

// LintDirectives checks every natlevet: comment in the files for
// well-formedness: allow entries must parse and carry a reason, allow
// names must be known analyzers, and unrecognized natlevet: verbs are
// flagged. It reports through report with the pseudo-analyzer name
// "natlevet".
func LintDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool, report func(Diagnostic)) {
	bad := func(pos token.Pos, format string, args ...any) {
		report(Diagnostic{Pos: pos, Analyzer: "natlevet", Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				switch {
				case strings.HasPrefix(c.Text, allowDirective):
					entries, err := parseAllow(c.Text)
					if err != nil {
						bad(c.Pos(), "%v", err)
						continue
					}
					for _, e := range entries {
						if !known[e.Analyzer] {
							bad(c.Pos(), "natlevet:allow names unknown analyzer %q", e.Analyzer)
						}
					}
				case strings.HasPrefix(c.Text, BackendDirective):
					body := strings.TrimSpace(strings.TrimPrefix(c.Text, BackendDirective))
					if body != "native" {
						bad(c.Pos(), "natlevet:backend declares unknown backend %q (only %q selects a package for lockorder; the simulated default needs no directive)", body, "native")
					}
				case strings.HasPrefix(c.Text, PercpuDirective):
					if rest := strings.TrimSpace(strings.TrimPrefix(c.Text, PercpuDirective)); rest != "" {
						bad(c.Pos(), "natlevet:percpu takes no arguments (got %q); it marks the annotated struct as concurrently written", rest)
					}
				case strings.HasPrefix(c.Text, HotpathDirective):
					if rest := strings.TrimSpace(strings.TrimPrefix(c.Text, HotpathDirective)); rest != "" {
						bad(c.Pos(), "natlevet:hotpath takes no arguments (got %q); it marks the annotated function as allocation-free", rest)
					}
				case strings.HasPrefix(c.Text, SeqlockDirective):
					if rest := strings.TrimSpace(strings.TrimPrefix(c.Text, SeqlockDirective)); rest != "" {
						bad(c.Pos(), "natlevet:seqlock takes no arguments (got %q); it marks the annotated function as an optimistic read section", rest)
					}
				case strings.HasPrefix(c.Text, "//natlevet:"):
					bad(c.Pos(), "unknown natlevet directive %q (known: allow, backend, percpu, hotpath, seqlock)", c.Text)
				}
			}
		}
	}
}

// MarkedFuncs collects the functions marked by a function directive
// (HotpathDirective, SeqlockDirective): a directive in a FuncDecl's
// doc comment marks the declaration; a directive on the line of — or
// the line directly above — a func literal's opening `func` marks the
// literal. Directive comments that attach to neither are returned as
// strays for the analyzer to flag.
func MarkedFuncs(fset *token.FileSet, files []*ast.File, directive string) (marked map[ast.Node]bool, strays []token.Pos) {
	marked = make(map[ast.Node]bool)
	used := make(map[*ast.Comment]bool)
	type key struct {
		file string
		line int
	}
	byLine := make(map[key][]*ast.Comment)
	var all []*ast.Comment
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directive) {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine[key{pos.Filename, pos.Line}] = append(byLine[key{pos.Filename, pos.Line}], c)
				all = append(all, c)
			}
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, directive) {
					marked[fd] = true
					used[c] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			pos := fset.Position(lit.Pos())
			for _, line := range []int{pos.Line, pos.Line - 1} {
				for _, c := range byLine[key{pos.Filename, line}] {
					if !used[c] {
						marked[lit] = true
						used[c] = true
					}
				}
			}
			return true
		})
	}
	for _, c := range all {
		if !used[c] {
			strays = append(strays, c.Pos())
		}
	}
	return marked, strays
}

// AtomicFields returns the variables — struct fields, package-level
// vars, and locals — whose address is passed to a sync/atomic function
// somewhere in the files: the words the package treats as atomic.
// atomicsafe uses it to catch plain accesses racing with those
// atomics; falseshare uses it to classify plain-typed fields
// (uint64 counters updated via atomic.AddUint64) as concurrently
// written.
func AtomicFields(info *types.Info, files []*ast.File) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					continue
				}
				if v := AddrTarget(info, u.X); v != nil {
					out[v] = true
				}
			}
			return true
		})
	}
	return out
}

// AddrTarget resolves the variable an addressable expression is rooted
// in: the field of a selector chain (peeling index expressions), the
// package-level var of a qualified identifier, or a plain local. It
// returns nil for unrooted expressions (function results, literals).
func AddrTarget(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
				v, _ := s.Obj().(*types.Var)
				return v
			}
			v, _ := info.Uses[x.Sel].(*types.Var)
			return v
		case *ast.Ident:
			v, _ := info.ObjectOf(x).(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// ContainsAtomic reports whether t is, or holds by value, a named type
// from sync/atomic. Pointers, slices, maps, and channels share their
// referent rather than embedding the word, so only named types,
// structs, and arrays propagate.
func ContainsAtomic(t types.Type) bool {
	switch u := types.Unalias(t).(type) {
	case *types.Named:
		if obj := u.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
			return true
		}
		return ContainsAtomic(u.Underlying())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if ContainsAtomic(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return ContainsAtomic(u.Elem())
	}
	return false
}
