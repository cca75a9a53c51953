// Package scheme is the synchronization-scheme registry: one
// descriptor per scheme (plain locking, TLE, NATLE, the cohort lock,
// raw HTM, the unsynchronized baseline, and any future variants), each
// bundling the scheme's name, its tunable options, a factory building
// a ready-to-use critical-section executor, and a uniform statistics
// facade.
//
// The paper's central claim is that TLE and NATLE are drop-in lock
// replacements; this package is that claim expressed as architecture.
// Every workload layer (the microbenchmark driver, the two-tree
// experiment, STAMP, ccTSA, paraheap-k) and every binary constructs
// its synchronization through the registry, so adding a scheme variant
// is one new file in this package — no call-site edits anywhere.
package scheme

import (
	"fmt"
	"sort"
	"strings"

	"natle/internal/backend"
	"natle/internal/htm"
	"natle/internal/natle"
	"natle/internal/sim"
	"natle/internal/tle"
)

// Options carries the tunables a trial may override on a scheme. The
// zero value selects each scheme's defaults; descriptors may bake
// their own base options in (see Descriptor.Opt and Configure).
type Options struct {
	// TLE is the retry policy for elision-based schemes (zero value
	// selects tle.TLE20()). Schemes with a fixed identity (e.g.
	// tle-hint) may force individual policy bits regardless.
	TLE tle.Policy
	// NATLE tunes the adaptive throttling cycle (nil selects
	// natle.DefaultConfig(); see ResolveNATLE).
	NATLE *natle.Config
	// Attempts bounds the raw-HTM scheme's retry loop (0 = its
	// default). Ignored by lock-based schemes, whose attempt count is
	// TLE.Attempts.
	Attempts int
}

// Stats is the uniform scheme-counter snapshot: every scheme reports
// through this one shape, so results no longer special-case TLE
// counters or NATLE timelines per scheme.
type Stats struct {
	// TLE holds the elision counters (zero for schemes that never
	// elide: plain, cohort, none, raw HTM).
	TLE tle.Stats
	// Timeline records adaptive-mode decisions (nil for schemes
	// without profiling).
	Timeline []natle.ModeSample
	// Extra carries scheme-private counters keyed by name (nil when a
	// scheme has none).
	Extra map[string]uint64
}

// Sub returns the counter deltas s - t for windowed measurement. The
// timeline is taken from s (decisions accumulate; they are not
// meaningfully subtractable).
func (s Stats) Sub(t Stats) Stats {
	d := Stats{TLE: s.TLE.Sub(t.TLE), Timeline: s.Timeline}
	if s.Extra != nil {
		d.Extra = make(map[string]uint64, len(s.Extra))
		for k, v := range s.Extra {
			d.Extra[k] = v - t.Extra[k]
		}
	}
	return d
}

// Instance is a constructed scheme on the simulated backend: a
// critical-section executor plus the uniform stats facade, safe for use
// by any number of simulated threads. Snapshot/delta measurement is
// inst.Stats() before the window and inst.Stats().Sub(before) after.
type Instance interface {
	// Critical runs body as one critical section. body may run more
	// than once, so it must be restartable, and must end on zeros: an
	// aborted transactional attempt runs on to its end with every access
	// a no-op (reads return 0), and is then retried.
	Critical(c *sim.Ctx, body func())
	// Exclusive runs body once under the scheme's own lock held
	// pessimistically — the lock its optimistic sections subscribe to,
	// so it excludes them and every other Exclusive or fallback section.
	// Schemes that never elide run it as an ordinary Critical.
	Exclusive(c *sim.Ctx, body func())
	// Name identifies the scheme in benchmark output.
	Name() string
	// Stats returns the cumulative counters since construction.
	Stats() Stats
}

// BackendInstance is Instance on an arbitrary execution backend. Sim
// instances are adapted to this shape by the sim world
// (internal/workload); native schemes implement it directly.
type BackendInstance interface {
	// Critical is Instance.Critical on an arbitrary backend.
	Critical(c backend.Ctx, body func())
	// Exclusive is Instance.Exclusive on an arbitrary backend.
	Exclusive(c backend.Ctx, body func())
	// Name identifies the scheme in benchmark output.
	Name() string
	// Stats returns the cumulative counters since construction.
	Stats() Stats
}

// Descriptor is one registry entry.
type Descriptor struct {
	// Name is the registry key and the value accepted by the tools'
	// -lock flags.
	Name string
	// Summary is the one-line description used in generated help text
	// and documentation.
	Summary string
	// Opt is the descriptor's base options; Configure merges trial
	// overrides on top.
	Opt Options
	// Mutex reports whether the scheme provides mutual exclusion
	// (false only for the unsynchronized baseline).
	Mutex bool
	// Robust reports whether every critical section eventually
	// completes regardless of its footprint (false for raw HTM, which
	// has no fallback for capacity-bound sections).
	Robust bool
	// Batch reports whether the scheme can execute multi-request
	// batches as one critical section (the service workload's per-shard
	// batching). Requires mutual exclusion (a batch must be atomic) and
	// robustness (a batch multiplies the transactional footprint, so a
	// scheme without a capacity fallback may never complete one); false
	// for the unsynchronized baseline and raw HTM.
	Batch bool
	// Make builds the scheme's simulated-backend instance, its lock
	// word (if any) homed on the given socket. Nil for native-only
	// schemes; at least one of Make and Native must be set.
	Make func(sys *htm.System, c *sim.Ctx, socket int, opt Options) Instance

	// Native builds the scheme's native-backend instance through the
	// backend-agnostic world/context pair (real goroutines, real
	// memory, wall-clock time; see internal/native). Nil for sim-only
	// schemes such as htm-raw, whose semantics exist only on the
	// simulated HTM.
	Native func(w backend.World, c backend.Ctx, opt Options) BackendInstance
}

// New builds a simulated instance with the descriptor's options. It
// panics when the scheme has no sim factory (callers gate on
// Supports(backend.Sim), normally via LookupFor).
func (d *Descriptor) New(sys *htm.System, c *sim.Ctx, socket int) Instance {
	if d.Make == nil {
		panic("scheme: " + d.Name + " is not available on the sim backend")
	}
	return d.Make(sys, c, socket, d.Opt)
}

// NewNative builds a native instance with the descriptor's options.
// It panics when the scheme has no native factory.
func (d *Descriptor) NewNative(w backend.World, c backend.Ctx) BackendInstance {
	if d.Native == nil {
		panic("scheme: " + d.Name + " is not available on the native backend")
	}
	return d.Native(w, c, d.Opt)
}

// Supports reports whether the descriptor has a factory for backend k.
func (d *Descriptor) Supports(k backend.Kind) bool {
	switch k {
	case backend.Sim:
		return d.Make != nil
	case backend.Native:
		return d.Native != nil
	default:
		return false
	}
}

// Configure returns a copy of the descriptor with the non-zero fields
// of opt overriding its base options.
func (d *Descriptor) Configure(opt Options) *Descriptor {
	nd := *d
	if opt.TLE != (tle.Policy{}) {
		nd.Opt.TLE = opt.TLE
	}
	if opt.NATLE != nil {
		nd.Opt.NATLE = opt.NATLE
	}
	if opt.Attempts != 0 {
		nd.Opt.Attempts = opt.Attempts
	}
	return &nd
}

// registry holds the descriptors by name. Registration happens in
// package init functions, so the map is read-only afterwards.
var registry = map[string]*Descriptor{}

// Register adds a descriptor. It panics on a duplicate or empty name
// or when no backend factory is set (registration is
// programmer-controlled, at init time).
func Register(d *Descriptor) {
	if d.Name == "" {
		panic("scheme: Register with empty name")
	}
	if d.Make == nil && d.Native == nil {
		panic("scheme: Register " + d.Name + " with no backend factory")
	}
	if _, dup := registry[d.Name]; dup {
		panic("scheme: duplicate registration of " + d.Name)
	}
	registry[d.Name] = d
}

// LookupFor returns the descriptor for name, requiring that it can be
// constructed on backend k. The error lists only that backend's
// names, so a native tool never advertises sim-only schemes and vice
// versa.
func LookupFor(k backend.Kind, name string) (*Descriptor, error) {
	d, ok := registry[name]
	if !ok || !d.Supports(k) {
		return nil, fmt.Errorf("scheme: unknown %s-backend scheme %q (have %s)",
			k, name, strings.Join(NamesFor(k), ", "))
	}
	return d, nil
}

// NamesFor returns the names of the schemes constructible on backend
// k, sorted.
func NamesFor(k backend.Kind) []string {
	var n []string
	for name, d := range registry {
		if d.Supports(k) {
			n = append(n, name)
		}
	}
	sort.Strings(n)
	return n
}

// AllFor returns the descriptors constructible on backend k, in
// NamesFor(k) order.
func AllFor(k backend.Kind) []*Descriptor {
	var ds []*Descriptor
	for _, n := range NamesFor(k) {
		ds = append(ds, registry[n])
	}
	return ds
}

// FlagHelpFor renders the -lock values accepted on backend k for flag
// usage strings, so per-backend help stays generated from the
// registry.
func FlagHelpFor(k backend.Kind) string { return strings.Join(NamesFor(k), " | ") }

// BatchNames returns the names of the simulated schemes with the
// Batch capability, sorted: the grid of the service SLO search and of
// BENCH_service.json, which are sim-only. Every native scheme is
// batch-capable too (service.RunNative), but none is listed here even
// when internal/native is linked in.
func BatchNames() []string {
	var n []string
	for _, d := range AllFor(backend.Sim) {
		if d.Batch {
			n = append(n, d.Name)
		}
	}
	return n
}

// BatchHelp renders the Batch-capable scheme names for flag usage
// strings, so help text stays generated from the registry.
func BatchHelp() string { return strings.Join(BatchNames(), ", ") }

// ResolveNATLE is the single copy of the config-defaulting fallback
// that every layer used to hand-roll: nil selects the default cycle.
func ResolveNATLE(cfg *natle.Config) natle.Config {
	if cfg == nil {
		return natle.DefaultConfig()
	}
	return *cfg
}

// resolveTLE defaults a zero policy to the paper's TLE-20.
func resolveTLE(p tle.Policy) tle.Policy {
	if p == (tle.Policy{}) {
		return tle.TLE20()
	}
	return p
}

// tleInstance adapts *tle.Lock to the stats facade.
type tleInstance struct{ *tle.Lock }

func (t tleInstance) Stats() Stats { return Stats{TLE: t.Lock.Stats} }

// natleInstance adapts *natle.Lock to the stats facade: the elision
// counters are its inner TLE lock's.
type natleInstance struct{ *natle.Lock }

func (n natleInstance) Stats() Stats {
	return Stats{TLE: n.Inner().Stats, Timeline: n.Lock.Timeline}
}

// Exclusive takes the inner TLE lock; the throttling mode shapes only
// optimistic admission.
func (n natleInstance) Exclusive(c *sim.Ctx, body func()) { n.Inner().Exclusive(c, body) }
