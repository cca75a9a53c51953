package load_test

import (
	"go/types"
	"strings"
	"testing"

	"natle/internal/analysis/load"
)

// TestFixtureResolvesGenericExportData loads a fixture that
// instantiates telemetry.Sub and telemetry.Add — generic functions
// whose signatures must come out of the compiler's export data. The
// gc export format for generics has changed between Go releases, so
// this is the canary for toolchain bumps breaking the offline loader.
func TestFixtureResolvesGenericExportData(t *testing.T) {
	pkg, err := load.Fixture("testdata/generics")
	if err != nil {
		t.Fatalf("Fixture: %v", err)
	}
	for _, name := range []string{"delta", "merge"} {
		obj := pkg.Types.Scope().Lookup(name)
		if obj == nil {
			t.Fatalf("fixture lost %q during type-checking", name)
		}
		sig, ok := obj.Type().(*types.Signature)
		if !ok || sig.Results().Len() != 1 {
			t.Fatalf("%s has type %v, want a single-result func", name, obj.Type())
		}
		if got := sig.Results().At(0).Type().String(); !strings.HasSuffix(got, ".snap") {
			t.Fatalf("%s returns %s, want the instantiated snap type", name, got)
		}
	}

	// The imported generic declarations themselves must carry their
	// type parameters: a loader that silently degraded them to
	// non-generic stubs would still type-check trivial uses.
	var telem *types.Package
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == "natle/internal/telemetry" {
			telem = imp
		}
	}
	if telem == nil {
		t.Fatal("fixture did not import natle/internal/telemetry")
	}
	for _, name := range []string{"Sub", "Add"} {
		fn, ok := telem.Scope().Lookup(name).(*types.Func)
		if !ok {
			t.Fatalf("telemetry.%s missing from export data", name)
		}
		if fn.Signature().TypeParams().Len() != 1 {
			t.Errorf("telemetry.%s lost its type parameter: %v", name, fn.Signature())
		}
	}
}

// TestPackagesLoadsRealPackage is the end-to-end smoke test of the
// go-list pattern path the natlevet multichecker uses.
func TestPackagesLoadsRealPackage(t *testing.T) {
	pkg, err := load.One(".", "natle/internal/vtime")
	if err != nil {
		t.Fatalf("One: %v", err)
	}
	if pkg.PkgPath != "natle/internal/vtime" {
		t.Fatalf("loaded %q, want natle/internal/vtime", pkg.PkgPath)
	}
	if len(pkg.Syntax) == 0 || pkg.TypesInfo == nil {
		t.Fatal("package loaded without syntax or type info")
	}
}

// TestPackagesFailsLoudlyOnBadPattern guards the loader hardening: a
// pattern the go tool cannot resolve must fail the run, not silently
// lint zero packages and report a clean tree.
func TestPackagesFailsLoudlyOnBadPattern(t *testing.T) {
	if _, err := load.Packages(".", nil, "./no/such/dir"); err == nil {
		t.Fatal("Packages succeeded on a nonexistent pattern")
	}
	if _, err := load.Packages(".", nil, "natle/internal/does-not-exist"); err == nil {
		t.Fatal("Packages succeeded on a nonexistent import path")
	}
}
