package expt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoSharedPackageState guards the executor's core assumption: a
// trial is a pure function of its config and seed, so trials may run
// concurrently on host goroutines. Any package-level variable in a
// trial-path package is state every pooled trial would share; this test
// fails when one appears that is not on the audited allowlist below.
//
// Allowlisted globals and why each is pool-safe:
//
//	scheme.registry       written only from init (via MustRegister);
//	                      read-only once trials exist
//	fault.schedules       a fixed table, never mutated
//	telemetry.nopShared   a stateless NopRecorder sentinel
//	service.arrivalTable  a fixed table, never mutated
var sharedStateAllowlist = map[string]string{
	"scheme/registry":      "init-only registration, read-only afterwards",
	"fault/schedules":      "immutable schedule table",
	"telemetry/nopShared":  "stateless no-op recorder sentinel",
	"service/arrivalTable": "immutable arrival-process table",
}

// trialPathPackages are the internal packages whose code can run inside
// a pooled trial.
var trialPathPackages = []string{
	"cache", "cctsa", "cohort", "delegation", "expt", "fault", "harness",
	"htm", "machine", "mem", "natle", "paraheap", "scheme",
	"service", "sets", "sim", "simmap", "spinlock", "stamp", "telemetry",
	"tle", "vtime", "workload",
}

func TestNoSharedPackageState(t *testing.T) {
	root := filepath.Join("..", "..")
	used := map[string]bool{}
	for _, pkg := range trialPathPackages {
		dir := filepath.Join(root, "internal", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for _, id := range vs.Names {
						if id.Name == "_" {
							continue
						}
						key := pkg + "/" + id.Name
						if _, ok := sharedStateAllowlist[key]; ok {
							used[key] = true
							continue
						}
						pos := fset.Position(id.Pos())
						t.Errorf("package-level var %s (%s) is shared across pooled trials; "+
							"move it into the trial's config/engine, or audit it and extend "+
							"sharedStateAllowlist with a justification", key, pos)
					}
				}
			}
		}
	}
	// A stale allowlist hides regressions: if an entry disappears from
	// the tree, it must be removed here too.
	for key := range sharedStateAllowlist {
		if !used[key] {
			t.Errorf("allowlist entry %q matched nothing; delete it", key)
		}
	}
}
