// Package stamp re-implements the STAMP benchmark suite [Minh et al.
// 2008] (in the Ruan et al. adaptation the paper evaluates) on the
// simulated machine, scaled down so trials complete in milliseconds of
// virtual time. As in the paper's setup, the transactional runtime is
// replaced by a single process-wide lock per benchmark, which TLE or
// NATLE then elides — so every transaction in a program contends on
// one elidable lock.
//
// Each benchmark is a faithful miniature of the original workload's
// transaction profile; see doc.go for the per-benchmark substitution
// notes (what the original computes, what the miniature preserves).
package stamp

import (
	"fmt"
	"sort"

	"natle/internal/backend"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/natle"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/tle"
	"natle/internal/vtime"
)

// Benchmark is one STAMP program.
type Benchmark interface {
	// Name is the benchmark's STAMP name (e.g. "kmeans-high").
	Name() string
	// Setup builds the input data; it runs on the driver thread before
	// the clock starts.
	Setup(sys *htm.System, c *sim.Ctx, threads int)
	// Work runs thread tid's share of the program. Transactions are
	// executed via cs.Critical. The barrier synchronizes program
	// phases.
	Work(c *sim.Ctx, cs scheme.Instance, bar *Barrier, tid, threads int)
	// Validate checks application-level output from raw memory after
	// the run.
	Validate(sys *htm.System) error
}

// New constructs a benchmark by name at the default (unit) size.
func New(name string) (Benchmark, error) { return NewScaled(name, 1) }

// NewScaled constructs a benchmark with its primary workload size
// multiplied by scale. Unit size keeps tests and benchmarks fast;
// the figure-record runs use larger scales so that high-thread-count
// runtimes span several NATLE cycles, as the original second-long
// STAMP runs did.
func NewScaled(name string, scale int) (Benchmark, error) {
	if scale < 1 {
		scale = 1
	}
	switch name {
	case "genome":
		b := newGenome()
		b.genomeLen *= scale
		return b, nil
	case "intruder":
		b := newIntruder()
		b.flows *= scale
		return b, nil
	case "kmeans-high":
		b := newKMeans(true)
		b.nPoints *= scale
		return b, nil
	case "kmeans-low":
		b := newKMeans(false)
		b.nPoints *= scale
		return b, nil
	case "labyrinth":
		b := newLabyrinth()
		b.routes *= scale
		// Grow the grid area with the route count so later routes do
		// not just fail on a congested board.
		for b.w*b.h < 12*b.routes {
			b.w += 16
			b.h += 16
		}
		return b, nil
	case "ssca2":
		b := newSSCA2()
		b.nodes *= scale
		return b, nil
	case "vacation-high":
		b := newVacation(true)
		b.sessions *= scale
		return b, nil
	case "vacation-low":
		b := newVacation(false)
		b.sessions *= scale
		return b, nil
	case "yada":
		b := newYada()
		b.initBad *= scale
		b.maxNew *= scale
		return b, nil
	}
	return nil, fmt.Errorf("stamp: unknown benchmark %q", name)
}

// Names lists all benchmarks in the order of the paper's Figure 17
// (bayes is omitted there for its high variance, as in the paper).
func Names() []string {
	n := []string{
		"genome", "intruder", "kmeans-high", "kmeans-low", "labyrinth",
		"ssca2", "vacation-high", "vacation-low", "yada",
	}
	sort.Strings(n)
	return n
}

// Config selects machine, synchronization, and scale for a run.
type Config struct {
	Prof    *machine.Profile
	Pin     machine.PinPolicy
	Threads int
	Seed    int64

	Lock  string        // any scheme.Names() entry; "" = "tle"
	TLE   tle.Policy    // inner policy (default TLE-20)
	NATLE *natle.Config // nil = natle.DefaultConfig
}

// Result is one benchmark run's outcome. Runtime is the virtual time
// from the moment all threads are released to the last thread's
// completion — the total-runtime metric of Figure 17 (lower is
// better).
type Result struct {
	Benchmark string
	Threads   int
	Runtime   vtime.Duration
	HTM       htm.Stats
	Sync      scheme.Stats // uniform scheme counters (TLE, timeline, extras)
}

// Barrier is a simple sense-reversing barrier for simulated threads
// (host state; execution is serialized by the simulator token, so no
// atomics are needed — waiting threads poll in virtual time).
type Barrier struct {
	n       int
	arrived int
	gen     int
}

// NewBarrier creates a barrier for n threads.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// Wait blocks the calling thread (in virtual time) until all n threads
// arrive.
func (b *Barrier) Wait(c *sim.Ctx) {
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		return
	}
	c.WaitUntil(500*vtime.Nanosecond, func() bool { return b.gen != gen })
}

// Run executes one benchmark and returns its measurements.
func Run(b Benchmark, cfg Config) *Result {
	if cfg.Prof == nil {
		cfg.Prof = machine.LargeX52()
	}
	if cfg.Pin == nil {
		cfg.Pin = machine.FillSocketFirst{}
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.TLE.Attempts == 0 {
		cfg.TLE = tle.TLE20()
	}
	if cfg.Lock == "" {
		cfg.Lock = "tle"
	}
	e := sim.New(cfg.Prof, cfg.Pin, cfg.Threads, cfg.Seed)
	return run(b, cfg, htm.NewSystem(e, 1<<22))
}

// run is Run on a caller-built system for a defaulted cfg.
func run(b Benchmark, cfg Config, sys *htm.System) *Result {
	desc, err := scheme.LookupFor(backend.Sim, cfg.Lock)
	if err != nil {
		panic(fmt.Sprintf("stamp: %v", err))
	}
	desc = desc.Configure(scheme.Options{TLE: cfg.TLE, NATLE: cfg.NATLE})
	e := sys.Eng
	res := &Result{Benchmark: b.Name(), Threads: cfg.Threads}

	e.Spawn(nil, func(c *sim.Ctx) {
		b.Setup(sys, c, cfg.Threads)
		// The STAMP adaptation's single process-wide elidable lock.
		cs := desc.New(sys, c, 0)
		bar := NewBarrier(cfg.Threads)
		var finish vtime.Time
		// Threads are created before the timed region, as in STAMP.
		start := e.SpawnTeam(c, cfg.Threads, func(tid int, w *sim.Ctx) {
			b.Work(w, cs, bar, tid, cfg.Threads)
			if w.Now() > finish {
				finish = w.Now()
			}
		})
		c.SetIdle(true)
		c.WaitOthers(2 * vtime.Microsecond)
		res.Runtime = finish.Sub(start)
		res.HTM = sys.Stats
		res.Sync = cs.Stats()
		if err := b.Validate(sys); err != nil {
			panic(fmt.Sprintf("stamp %s: validation failed: %v", b.Name(), err))
		}
	})
	e.Run()
	return res
}

// share splits count items into threads nearly equal chunks and
// returns tid's [lo, hi) range.
func share(count, threads, tid int) (lo, hi int) {
	per := count / threads
	rem := count % threads
	lo = tid*per + min(tid, rem)
	hi = lo + per
	if tid < rem {
		hi++
	}
	return
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
