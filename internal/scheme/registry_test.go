package scheme_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"

	"natle/internal/backend"
	"natle/internal/natle"
	"natle/internal/scheme"
	"natle/internal/tle"
	"natle/internal/vtime"
)

// workloadLockKinds parses workload.go and returns the string value of
// every constant declared with type LockKind: Go cannot list a
// package's constants at run time, so the test reads them from source.
func workloadLockKinds(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../workload/workload.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "LockKind" {
				continue
			}
			for _, v := range vs.Values {
				lit, ok := v.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("LockKind constant %s is not a string literal", vs.Names[0].Name)
				}
				k, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				kinds = append(kinds, k)
			}
		}
	}
	return kinds
}

// TestRegistryCoversWorkloadLockKinds fails when someone adds a
// workload.LockKind constant without registering the scheme behind it
// — the constant would compile everywhere and then panic at run time.
func TestRegistryCoversWorkloadLockKinds(t *testing.T) {
	kinds := workloadLockKinds(t)
	if len(kinds) < 5 {
		t.Fatalf("found only %d LockKind constants in workload.go; parser out of sync?", len(kinds))
	}
	for _, k := range kinds {
		if _, err := scheme.LookupFor(backend.Sim, k); err != nil {
			t.Errorf("workload.LockKind %q has no registry entry: %v", k, err)
		}
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	for _, k := range backend.Kinds() {
		names := scheme.NamesFor(k)
		if !sort.StringsAreSorted(names) {
			t.Errorf("NamesFor(%s) not sorted: %v", k, names)
		}
		if all := scheme.AllFor(k); len(all) != len(names) {
			t.Errorf("AllFor(%s) returned %d descriptors for %d names", k, len(all), len(names))
		}
	}
	names := scheme.NamesFor(backend.Sim)
	for _, want := range []string{"lock", "tle", "natle", "cohort", "none", "tle-hint", "htm-raw"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("scheme %q missing from registry (have %v)", want, names)
		}
	}
}

func TestLookupErrorListsValidNames(t *testing.T) {
	_, err := scheme.LookupFor(backend.Sim, "bogus")
	if err == nil {
		t.Fatal("LookupFor(sim, bogus) succeeded")
	}
	if !strings.Contains(err.Error(), "natle") || !strings.Contains(err.Error(), "tle-hint") {
		t.Errorf("error should list valid names, got: %v", err)
	}
}

// TestFlagHelpListsEverything: each backend's -lock help lists every
// scheme of that backend, and every scheme has a one-line summary for
// extended help.
func TestFlagHelpListsEverything(t *testing.T) {
	for _, k := range backend.Kinds() {
		h := scheme.FlagHelpFor(k)
		for _, n := range scheme.NamesFor(k) {
			if !strings.Contains(h, n) {
				t.Errorf("FlagHelpFor(%s) missing %q: %s", k, n, h)
			}
		}
		for _, d := range scheme.AllFor(k) {
			if d.Summary == "" || strings.Contains(d.Summary, "\n") {
				t.Errorf("%s: summary %q is not one line", d.Name, d.Summary)
			}
		}
	}
}

func TestConfigureMergesOverrides(t *testing.T) {
	d, err := scheme.LookupFor(backend.Sim, "tle")
	if err != nil {
		t.Fatal(err)
	}
	pol := tle.Policy{Attempts: 7, HonorHint: true}
	nd := d.Configure(scheme.Options{TLE: pol})
	if nd.Opt.TLE != pol {
		t.Errorf("TLE override lost: %+v", nd.Opt.TLE)
	}
	if nd == d {
		t.Error("Configure must copy, not mutate, the registered descriptor")
	}
	if d.Opt.TLE == pol {
		t.Error("Configure mutated the registered descriptor's options")
	}
	// Zero options leave the base untouched.
	same := d.Configure(scheme.Options{})
	if same.Opt != d.Opt {
		t.Errorf("zero-value Configure changed options: %+v != %+v", same.Opt, d.Opt)
	}
	// Non-zero NATLE override sticks.
	ncfg := natle.DefaultConfig()
	ncfg.QuantumLen = 123 * vtime.Microsecond
	nd2 := d.Configure(scheme.Options{NATLE: &ncfg})
	if nd2.Opt.NATLE == nil || nd2.Opt.NATLE.QuantumLen != 123*vtime.Microsecond {
		t.Error("NATLE override lost")
	}
}

func TestResolveNATLE(t *testing.T) {
	if got, want := scheme.ResolveNATLE(nil), natle.DefaultConfig(); got != want {
		t.Errorf("ResolveNATLE(nil) = %+v, want DefaultConfig", got)
	}
	cfg := natle.DefaultConfig()
	cfg.Quanta = 3
	if got := scheme.ResolveNATLE(&cfg); got.Quanta != 3 {
		t.Errorf("ResolveNATLE dropped explicit config: %+v", got)
	}
}

func TestCapabilityFlags(t *testing.T) {
	for name, want := range map[string]struct{ mutex, robust bool }{
		"lock": {true, true}, "tle": {true, true}, "natle": {true, true},
		"cohort": {true, true}, "tle-hint": {true, true},
		"none": {false, true}, "htm-raw": {true, false},
	} {
		d, err := scheme.LookupFor(backend.Sim, name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if d.Mutex != want.mutex || d.Robust != want.robust {
			t.Errorf("%s: Mutex=%v Robust=%v, want %v/%v",
				name, d.Mutex, d.Robust, want.mutex, want.robust)
		}
	}
}
