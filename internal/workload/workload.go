// Package workload implements the paper's microbenchmark driver: a
// fixed number of threads repeatedly invoke operations on shared sets,
// with keys drawn uniformly from a key range, optional "external work"
// between operations, and a choice of synchronization scheme. Run has
// two workload shapes: one set under one lock, with a configurable
// update percentage (updates split evenly between inserts and deletes),
// and Figure 16's two sets with a lock each, one updated and one
// searched. Every set is prefilled to half the key range before
// measurement, exactly as in Section 5.1.
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
// scheme.LookupFor accepts on the sim backend is accepted; the
// constants below cover the paper's core schemes.
type LockKind string

// Core schemes (see scheme.NamesFor(backend.Sim) for the full sim
// registry, which also includes extension entries such as "tle-hint"
// and "htm-raw").
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

	// Workload selects the trial's shape by its backend workload name.
	// BackendSets (the default) is one set under one lock, every thread
	// running the operation mix below. BackendTwoTrees is the paper's
	// Figure 16: two sets, each under its own instance of the scheme;
	// thread i runs 100% updates on the first when i is even and 100%
	// lookups on the second when i is odd. Under the paper's
	// fill-socket-first pinning with an even thread count this splits
	// each socket's threads equally between the groups.
	Workload string

	SetKind   sets.Kind
	KeyRange  int64
	UpdatePct int // 0..100, sets shape only; remainder are lookups

	// SearchReplace switches the sets shape's operation mix to the Fig
	// 4 search-and-replace operation (UpdatePct is then ignored).
	SearchReplace bool

	// SearchWork (two-trees shape only) is the exclusive upper bound on
	// the random number of external-work iterations added to each
	// search operation, so the two groups have comparable single-thread
	// throughput (the paper adds work because searches are much cheaper
	// than updates).
	SearchWork int

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
	if cfg.Workload == "" {
		cfg.Workload = BackendSets
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

// pairs returns the number of (set, lock) pairs of the configured
// shape, or an error naming a field the shape would silently ignore.
func (cfg *Config) pairs() (int, error) {
	switch cfg.Workload {
	case BackendSets:
		if cfg.SearchWork != 0 {
			return 0, fmt.Errorf("SearchWork %d needs the %s shape", cfg.SearchWork, BackendTwoTrees)
		}
		return 1, nil
	case BackendTwoTrees:
		if cfg.SearchReplace {
			return 0, fmt.Errorf("SearchReplace needs the %s shape", BackendSets)
		}
		if cfg.UpdatePct != 0 {
			return 0, fmt.Errorf("UpdatePct %d needs the %s shape (%s fixes its groups at 100%% updates and 100%% lookups)",
				cfg.UpdatePct, BackendSets, BackendTwoTrees)
		}
		return 2, nil
	default:
		return 0, fmt.Errorf("unknown workload shape %q (have %s, %s)", cfg.Workload, BackendSets, BackendTwoTrees)
	}
}

// Result reports one trial's measurements (all counters are deltas over
// the measured window only).
type Result struct {
	Config   Config
	Ops      uint64   // operations completed in the window
	PerSock  []uint64 // operations by socket (len = Config.Prof.Sockets)
	PerLock  []uint64 // operations by lock, update lock first (len 1 for sets, 2 for two trees)
	Duration vtime.Duration

	// Sync is the first lock's uniform counter snapshot: TLE elision
	// counters (zero for non-eliding schemes), the adaptive-mode
	// timeline (nil unless the scheme profiles), and any
	// scheme-private extras.
	Sync scheme.Stats
	// LockSync holds every lock's counters in PerLock's order, the
	// order BackendResult.Sync uses; Sync is LockSync[0].
	LockSync []scheme.Stats

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
	return r.rate(r.Ops)
}

// LockThroughput returns the operations per virtual second completed
// under lock i (PerLock's order).
func (r *Result) LockThroughput(i int) float64 {
	return r.rate(r.PerLock[i])
}

func (r *Result) rate(ops uint64) float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(ops) / r.Duration.Seconds()
}

// Run executes one trial and returns its measurements.
func Run(cfg Config) *Result {
	cfg.defaults()
	nLocks, err := cfg.pairs()
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	desc, err := scheme.LookupFor(backend.Sim, string(cfg.Lock))
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	desc = desc.Configure(scheme.Options{TLE: cfg.TLE, NATLE: cfg.NATLE})
	world := NewSimWorld(cfg.Prof, cfg.Pin, cfg.Threads, cfg.Seed, cfg.MemWords)
	e, sys := world.Eng, world.Sys
	if cfg.Recorder != nil {
		// Installed before any locks exist so their RegisterLock calls
		// land in this recorder.
		sys.SetRecorder(cfg.Recorder)
	}
	fault.Arm(world, cfg.Fault)
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
	res := &Result{
		Config:   cfg,
		PerSock:  make([]uint64, cfg.Prof.Sockets),
		PerLock:  make([]uint64, nLocks),
		LockSync: make([]scheme.Stats, nLocks),
	}

	e.Spawn(nil, func(c *sim.Ctx) {
		// Every set first, then every lock, then the prefills: one pair
		// is the set shape's order, two are Figure 16's.
		trees := make([]*sets.Set, nLocks)
		for i := range trees {
			set, err := sets.New(cfg.SetKind, sys, c)
			if err != nil {
				panic(err)
			}
			trees[i] = set
		}
		// Per-lock independence is the point of Figure 16: each set
		// gets its own instance of the same scheme.
		locks := make([]scheme.Instance, nLocks)
		for i := range locks {
			locks[i] = desc.New(sys, c, 0)
		}
		for _, set := range trees {
			sets.Prefill(set, c, cfg.KeyRange)
		}

		// The window is fixed before any worker runs: none does until
		// the driver first gives way, below.
		var measureStart, deadline vtime.Time
		start := e.SpawnTeam(c, cfg.Threads, func(i int, w *sim.Ctx) {
			var op func()
			lock := 0
			if cfg.Workload == BackendTwoTrees {
				lock = i % 2
				op = cfg.twoTreesOp(w, lock, trees[lock], locks[lock])
			} else {
				op = cfg.setsOp(w, trees[0], locks[0])
			}
			for {
				opStart := w.Now()
				if opStart >= deadline {
					break
				}
				op()
				// Sim threads run one at a time, so they count into
				// the result directly.
				if opStart >= measureStart && w.Now() <= deadline {
					res.Ops++
					res.PerLock[lock]++
					res.PerSock[w.Socket()]++
				}
				if cfg.ExternalWork > 0 {
					w.Work(w.Intn(cfg.ExternalWork))
				}
			}
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
		syncBefore := make([]scheme.Stats, nLocks)
		for i, cs := range locks {
			syncBefore[i] = cs.Stats()
		}

		c.WaitOthers(2 * vtime.Microsecond)

		res.Duration = cfg.Duration
		res.HTM = sys.Stats.Sub(htmBefore)
		res.Cache = sys.Cache.Stats.Sub(cacheBefore)
		for i, cs := range locks {
			res.LockSync[i] = cs.Stats().Sub(syncBefore[i])
		}
		res.Sync = res.LockSync[0]
	})
	e.Run()
	if col, ok := cfg.Recorder.(*telemetry.Collector); ok {
		sum := col.Summary()
		res.Telemetry = &sum
	}
	res.Fault = world.FaultStats()
	return res
}

// setsOp returns a worker's operation in the sets shape: a key drawn
// from the whole range, then the configured mix on the one set.
//
// The section bodies are built once per worker: each operates on the
// key of the operation in progress. A literal per operation would be a
// heap object per operation, escaping through the Critical interface
// call.
func (cfg *Config) setsOp(w *sim.Ctx, set *sets.Set, cs scheme.Instance) func() {
	var key int64
	searchReplace := func() { set.SearchReplace(w, key) }
	insert := func() { set.Insert(w, key) }
	remove := func() { set.Delete(w, key) }
	contains := func() { set.Contains(w, key) }
	return func() {
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
	}
}

// twoTreesOp returns a worker's operation in the two-trees shape: an
// insert or a delete on the update set (lock 0), or a lookup plus
// SearchWork on the search set (lock 1). Bodies are built once per
// worker, as in setsOp.
func (cfg *Config) twoTreesOp(w *sim.Ctx, lock int, set *sets.Set, cs scheme.Instance) func() {
	var key int64
	if lock == 1 {
		contains := func() { set.Contains(w, key) }
		return func() {
			key = int64(w.Rand64() % uint64(cfg.KeyRange))
			cs.Critical(w, contains)
			if cfg.SearchWork > 0 {
				w.Work(w.Intn(cfg.SearchWork))
			}
		}
	}
	insert := func() { set.Insert(w, key) }
	remove := func() { set.Delete(w, key) }
	return func() {
		key = int64(w.Rand64() % uint64(cfg.KeyRange))
		if w.Rand64()&1 == 0 {
			cs.Critical(w, insert)
		} else {
			cs.Critical(w, remove)
		}
	}
}
