// Package workload implements the paper's microbenchmark driver: a
// fixed number of threads repeatedly invoke operations on one shared
// set, with keys drawn uniformly from a key range, a configurable
// update percentage (updates split evenly between inserts and
// deletes), optional "external work" between operations, and a choice
// of synchronization scheme. The set is prefilled to half the key
// range before measurement, exactly as in Section 5.1.
package workload

import (
	"fmt"

	"natle/internal/backend"
	"natle/internal/cache"
	"natle/internal/fault"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/natle"
	"natle/internal/scheme"
	"natle/internal/sets"
	"natle/internal/sim"
	"natle/internal/telemetry"
	"natle/internal/tle"
	"natle/internal/vtime"
)

// LockKind selects the synchronization scheme for a trial. Any name
// registered in internal/scheme is accepted; the constants below cover
// the paper's core schemes.
type LockKind string

// Core schemes (see scheme.Names() for the full registry, which also
// includes extension entries such as "tle-hint" and "htm-raw").
const (
	LockPlain  LockKind = "lock"   // spin lock, never elided
	LockTLE    LockKind = "tle"    // transactional lock elision
	LockNATLE  LockKind = "natle"  // NATLE over TLE
	LockCohort LockKind = "cohort" // NUMA-aware cohort lock (no elision)
	LockNoSync LockKind = "none"   // no synchronization (Fig 4 baseline)
)

// Config describes one trial.
type Config struct {
	Prof    *machine.Profile
	Pin     machine.PinPolicy
	Threads int
	Seed    int64

	SetKind   sets.Kind
	KeyRange  int64
	UpdatePct int // 0..100; remainder are lookups

	// SearchReplace switches the operation mix to the Fig 4
	// search-and-replace operation (UpdatePct is then ignored).
	SearchReplace bool

	// ExternalWork is the exclusive upper bound on the random number
	// of external-work iterations between operations (0 disables).
	ExternalWork int

	Lock  LockKind
	TLE   tle.Policy    // used by LockTLE and as NATLE's inner lock
	NATLE *natle.Config // nil selects natle.DefaultConfig

	// Warmup is the virtual time between the start line — the instant
	// at which every worker begins, once the last one is created and
	// pinned (sim.Engine.SpawnTeam) — and the measured window. The
	// driver's own clock has by then paid Threads spawn/pin overheads,
	// which are in neither; Result's counters are deltas over the window
	// alone.
	Warmup   vtime.Duration
	Duration vtime.Duration // measured virtual time, right after Warmup

	// CommitDelay inserts a spin of the given virtual duration before
	// every transactional commit (the Fig 6 injection experiment).
	CommitDelay vtime.Duration

	// Fault, if non-nil and enabled, arms these faults on the trial's
	// world for the whole trial, setup included; the result's Fault
	// counts what was injected (see internal/fault).
	Fault *fault.Profile

	// MemWords pre-sizes the simulated memory (grown on demand).
	MemWords int

	// Recorder, if non-nil, receives the trial's telemetry events
	// (transaction lifecycle, fallbacks, throttle waits, cache traffic).
	// Nil keeps the no-op recorder, so instrumented layers cost nothing.
	Recorder telemetry.Recorder
}

func (cfg *Config) defaults() {
	if cfg.Prof == nil {
		cfg.Prof = machine.LargeX52()
	}
	if cfg.Pin == nil {
		cfg.Pin = machine.FillSocketFirst{}
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.SetKind == "" {
		cfg.SetKind = sets.KindAVL
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 2048
	}
	if cfg.Lock == "" {
		cfg.Lock = LockTLE
	}
	if cfg.TLE.Attempts == 0 {
		cfg.TLE = tle.TLE20()
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 300 * vtime.Microsecond
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * vtime.Millisecond
	}
	if cfg.MemWords <= 0 {
		cfg.MemWords = 1 << 20
	}
}

// Result reports one trial's measurements (all counters are deltas over
// the measured window only).
type Result struct {
	Config   Config
	Ops      uint64   // operations completed in the window
	PerSock  []uint64 // operations by socket (len = Config.Prof.Sockets)
	Duration vtime.Duration

	// Sync is the scheme's uniform counter snapshot: TLE elision
	// counters (zero for non-eliding schemes), the adaptive-mode
	// timeline (nil unless the scheme profiles), and any
	// scheme-private extras.
	Sync scheme.Stats

	HTM   htm.Stats   // transaction counters
	Cache cache.Stats // coherence counters

	// Telemetry is the recorder's whole-trial roll-up when
	// Config.Recorder is a *telemetry.Collector (nil otherwise). Unlike
	// the windowed deltas above it also covers warmup and prefill.
	Telemetry *telemetry.Summary

	// Fault counts the faults injected over the whole trial (zero
	// without Config.Fault).
	Fault fault.Stats
}

// Throughput returns operations per virtual second.
func (r *Result) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds()
}

// newSystem builds the HTM runtime for a trial, wiring up the Fig 6
// commit-delay injection hook, the telemetry recorder and the fault
// injector when configured. The injector is nil without cfg.Fault.
func newSystem(e *sim.Engine, cfg Config) (*htm.System, *fault.Fault) {
	sys := htm.NewSystem(e, cfg.MemWords)
	if cfg.Recorder != nil {
		// Installed before any locks exist so their RegisterLock calls
		// land in this recorder.
		sys.SetRecorder(cfg.Recorder)
	}
	var inj *fault.Fault
	if cfg.Fault != nil && cfg.Fault.Enabled() {
		inj = fault.New(*cfg.Fault, cfg.Seed)
		sys.SetInjector(inj)
	}
	if cfg.CommitDelay > 0 {
		step := 200 * vtime.Nanosecond
		steps := int(cfg.CommitDelay / step)
		sys.CommitDelay = func(c *sim.Ctx) {
			for i := 0; i < steps; i++ {
				c.Advance(step)
				c.Checkpoint()
			}
		}
	}
	return sys, inj
}

// Run executes one trial and returns its measurements.
func Run(cfg Config) *Result {
	cfg.defaults()
	desc, err := scheme.LookupFor(backend.Sim, string(cfg.Lock))
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	desc = desc.Configure(scheme.Options{TLE: cfg.TLE, NATLE: cfg.NATLE})
	e := sim.New(cfg.Prof, cfg.Pin, cfg.Threads, cfg.Seed)
	sys, inj := newSystem(e, cfg)
	res := &Result{Config: cfg, PerSock: make([]uint64, cfg.Prof.Sockets)}

	e.Spawn(nil, func(c *sim.Ctx) {
		set, err := sets.New(cfg.SetKind, sys, c)
		if err != nil {
			panic(err)
		}
		cs := desc.New(sys, c, 0)

		sets.Prefill(set, c, cfg.KeyRange)

		// The window is fixed before any worker runs: none does until
		// the driver first gives way, below.
		var measureStart, deadline vtime.Time
		start := e.SpawnTeam(c, cfg.Threads, func(_ int, w *sim.Ctx) {
			runWorker(w, cfg, set, cs, res, measureStart, deadline)
		})
		measureStart = start.Add(cfg.Warmup)
		deadline = measureStart.Add(cfg.Duration)
		// The driver now just waits (a joined main thread); it should
		// not contend with the worker sharing its core.
		c.SetIdle(true)

		// Snapshot counters at the start of the measurement window.
		c.AdvanceIdle(cfg.Warmup)
		c.Checkpoint()
		htmBefore := sys.Stats
		cacheBefore := sys.Cache.Stats
		syncBefore := cs.Stats()

		c.WaitOthers(2 * vtime.Microsecond)

		res.Duration = cfg.Duration
		res.HTM = sys.Stats.Sub(htmBefore)
		res.Cache = sys.Cache.Stats.Sub(cacheBefore)
		res.Sync = cs.Stats().Sub(syncBefore)
	})
	e.Run()
	if col, ok := cfg.Recorder.(*telemetry.Collector); ok {
		sum := col.Summary()
		res.Telemetry = &sum
	}
	if inj != nil {
		res.Fault = inj.Stats
	}
	return res
}

func runWorker(w *sim.Ctx, cfg Config, set *sets.Set, cs scheme.Instance,
	res *Result, measureStart, deadline vtime.Time) {
	var counted uint64
	countedSock := make([]uint64, len(res.PerSock))
	// The section bodies, built once per worker: each operates on the key
	// of the operation in progress. A literal per operation would be a
	// heap object per operation, escaping through the Critical interface
	// call.
	var key int64
	searchReplace := func() { set.SearchReplace(w, key) }
	insert := func() { set.Insert(w, key) }
	remove := func() { set.Delete(w, key) }
	contains := func() { set.Contains(w, key) }
	for {
		opStart := w.Now()
		if opStart >= deadline {
			break
		}
		key = int64(w.Rand64() % uint64(cfg.KeyRange))
		switch {
		case cfg.SearchReplace:
			cs.Critical(w, searchReplace)
		case int(w.Rand64()%100) < cfg.UpdatePct:
			if w.Rand64()&1 == 0 {
				cs.Critical(w, insert)
			} else {
				cs.Critical(w, remove)
			}
		default:
			cs.Critical(w, contains)
		}
		if opStart >= measureStart && w.Now() <= deadline {
			counted++
			countedSock[w.Socket()]++
		}
		if cfg.ExternalWork > 0 {
			w.Work(w.Intn(cfg.ExternalWork))
		}
	}
	res.Ops += counted
	for i, n := range countedSock {
		res.PerSock[i] += n
	}
}
