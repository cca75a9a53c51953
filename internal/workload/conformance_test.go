package workload_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"natle/internal/backend"
	"natle/internal/native"
	"natle/internal/scheme"
	"natle/internal/workload"
)

// The cross-backend conformance suite: the backend-agnostic workloads
// are built so their final shared-memory contents are a pure function
// of (workload, threads, seed) — independent of scheme, backend, and
// interleaving. So every scheme on every backend must produce the
// same checksum, and every trial must conserve its operation count.
// This generalizes the sim-only cross-scheme equivalence test to the
// native backend, where the interleavings are real.

// conformancePairs maps each simulated scheme to its native mirror(s).
var conformancePairs = []struct {
	sim, native string
}{
	{"lock", "native-spin"},
	{"lock", "native-mutex"},
	{"tle", "native-tle"},
	{"natle", "native-natle"},
}

func runConformance(t *testing.T, k backend.Kind, cfg workload.BackendConfig) *workload.BackendResult {
	t.Helper()
	var w backend.World
	switch k {
	case backend.Sim:
		w = workload.NewSimWorld(nil, nil, cfg.Threads, cfg.Seed, 0)
	case backend.Native:
		w = native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.MemWords()})
	default:
		t.Fatalf("unknown backend %q", k)
	}
	res := workload.RunBackend(w, cfg)

	want := uint64(cfg.Threads) * uint64(cfg.Ops)
	if res.Ops != want {
		t.Fatalf("%s/%s on %s: %d ops completed, want %d", cfg.Workload, cfg.Lock, k, res.Ops, want)
	}
	// Op conservation per lock: every critical section either
	// committed optimistically or took the fallback, never both,
	// never neither.
	for i, s := range res.Sync {
		if s.TLE.Ops == 0 {
			continue // non-eliding scheme: no attempt ledger
		}
		if got := s.TLE.Commits + s.TLE.Fallbacks; got != s.TLE.Ops {
			t.Fatalf("%s/%s on %s lock %d: commits+fallbacks = %d, want ops = %d",
				cfg.Workload, cfg.Lock, k, i, got, s.TLE.Ops)
		}
	}
	return res
}

func TestCrossBackendConformance(t *testing.T) {
	for _, wl := range workload.BackendWorkloads() {
		for _, threads := range []int{1, 3, 4} {
			t.Run(fmt.Sprintf("%s/threads=%d", wl, threads), func(t *testing.T) {
				base := workload.BackendConfig{
					Workload: wl,
					Threads:  threads,
					Ops:      1500,
					Seed:     1,
					KeyRange: 256,
				}

				var wantCheck uint64
				var wantFrom string
				record := func(from string, check uint64) {
					if wantFrom == "" {
						wantFrom, wantCheck = from, check
						return
					}
					if check != wantCheck {
						t.Fatalf("final contents diverge: %s checksum %#x, %s checksum %#x",
							wantFrom, wantCheck, from, check)
					}
				}

				for _, pair := range conformancePairs {
					simCfg := base
					simCfg.Lock = pair.sim
					record(pair.sim+"@sim", runConformance(t, backend.Sim, simCfg).Check)

					natCfg := base
					natCfg.Lock = pair.native
					record(pair.native+"@native", runConformance(t, backend.Native, natCfg).Check)
				}

				if wl == workload.BackendCounter {
					want := uint64(threads) * uint64(base.Ops)
					if wantCheck != want {
						t.Fatalf("counter final value %d, want threads*ops = %d", wantCheck, want)
					}
				}
			})
		}
	}
}

// TestSimWorldMatchesKind pins the adapter's capability wiring: the
// sim world builds sim instances, and asking it for a native-only
// scheme must fail in LookupFor (not panic in a nil factory). It also
// pins the native roster, so a scheme cannot appear or vanish silently.
func TestSimWorldMatchesKind(t *testing.T) {
	w := workload.NewSimWorld(nil, nil, 1, 1, 0)
	if w.Kind() != backend.Sim {
		t.Fatalf("sim world kind = %q", w.Kind())
	}
	if _, err := scheme.LookupFor(w.Kind(), "native-tle"); err == nil {
		t.Fatalf("LookupFor(sim, native-tle) succeeded; want error")
	}
	nw := native.NewWorld(native.Config{})
	if _, err := scheme.LookupFor(nw.Kind(), "htm-raw"); err == nil {
		t.Fatalf("LookupFor(native, htm-raw) succeeded; want error")
	}
	// The native roster is exactly these four, and a name outside it
	// gets the registry's generated help, which is what htmbench
	// prints before exiting 2.
	roster := []string{"native-mutex", "native-natle", "native-spin", "native-tle"}
	if got := scheme.NamesFor(backend.Native); !reflect.DeepEqual(got, roster) {
		t.Fatalf("native schemes = %v, want %v", got, roster)
	}
	_, err := scheme.LookupFor(backend.Native, "native-tle-striped")
	if want := "(have " + strings.Join(roster, ", ") + ")"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LookupFor(native, native-tle-striped) = %v, want an error ending %q", err, want)
	}
}
