package scheme_test

import (
	"strings"
	"testing"

	"natle/internal/backend"
	"natle/internal/scheme"
)

// A fake native-only descriptor exercises the backend axis without
// importing internal/native (which would drag real registrations into
// every test in this package). Registered once at init, it sits in the
// one registry — the per-backend views below must keep it out of the
// sim side.
func init() {
	scheme.Register(&scheme.Descriptor{
		Name:    "test-native-only",
		Summary: "native-only fake for backend-capability tests",
		Mutex:   true,
		Robust:  true,
		Native: func(_ backend.World, _ backend.Ctx, _ scheme.Options) scheme.BackendInstance {
			return nil
		},
	})
}

// TestBackendsCapability checks the Descriptor.Supports axis: every
// core scheme is sim-only until a native factory is added, and the
// fake above is native-only.
func TestBackendsCapability(t *testing.T) {
	for _, name := range []string{"lock", "tle", "natle", "cohort", "none", "htm-raw"} {
		d, err := scheme.LookupFor(backend.Sim, name)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Supports(backend.Sim) {
			t.Errorf("%s must support the sim backend", name)
		}
		if d.Supports(backend.Native) {
			t.Errorf("%s supports the native backend, want sim only", name)
		}
	}
	d, err := scheme.LookupFor(backend.Native, "test-native-only")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Supports(backend.Native) || d.Supports(backend.Sim) {
		t.Errorf("test-native-only supports sim=%v native=%v, want native only",
			d.Supports(backend.Sim), d.Supports(backend.Native))
	}
}

// TestPerBackendViewsDoNotLeak is the registry half of the
// no-cross-backend-leakage guarantee: NamesFor/FlagHelpFor/AllFor
// list a scheme only on backends it supports, and LookupFor rejects
// (with per-backend help) schemes from the other world.
func TestPerBackendViewsDoNotLeak(t *testing.T) {
	for _, k := range backend.Kinds() {
		for _, name := range scheme.NamesFor(k) {
			d, err := scheme.LookupFor(k, name)
			if err != nil {
				t.Errorf("NamesFor(%s) lists %q but LookupFor rejects it: %v", k, name, err)
				continue
			}
			if !d.Supports(k) {
				t.Errorf("NamesFor(%s) leaked %q, which does not support %s", k, name, k)
			}
		}
		for _, d := range scheme.AllFor(k) {
			if !d.Supports(k) {
				t.Errorf("AllFor(%s) leaked %q", k, d.Name)
			}
		}
	}
	if h := scheme.FlagHelpFor(backend.Sim); strings.Contains(h, "test-native-only") {
		t.Errorf("sim -lock help advertises a native-only scheme: %s", h)
	}
	if h := scheme.FlagHelpFor(backend.Native); strings.Contains(h, "htm-raw") {
		t.Errorf("native -lock help advertises the sim-only htm-raw: %s", h)
	}

	// LookupFor across the axis: a native-only name fails on sim with
	// an error listing only sim names, and vice versa.
	if _, err := scheme.LookupFor(backend.Sim, "test-native-only"); err == nil {
		t.Error("LookupFor(sim, test-native-only) succeeded")
	} else if strings.Contains(err.Error(), "test-native-only,") {
		t.Errorf("sim lookup error leaks native names: %v", err)
	}
	if _, err := scheme.LookupFor(backend.Native, "htm-raw"); err == nil {
		t.Error("LookupFor(native, htm-raw) succeeded")
	} else if strings.Contains(err.Error(), "htm-raw,") {
		t.Errorf("native lookup error leaks sim names: %v", err)
	}
}

// TestRegisterRequiresAFactory pins the relaxed Register contract: no
// factory at all still panics.
func TestRegisterRequiresAFactory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Register with no backend factory did not panic")
		}
	}()
	scheme.Register(&scheme.Descriptor{Name: "test-factoryless"})
}
