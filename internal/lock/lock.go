// Package lock defines the critical-section abstraction shared by all
// synchronization schemes in this repository (plain spin lock, TLE,
// NATLE, and the no-synchronization baseline). Benchmarks are written
// against this interface so a workload can be run unchanged under any
// scheme — the property that makes TLE and NATLE drop-in lock
// replacements in the paper.
package lock

import (
	"natle/internal/htm"
	"natle/internal/sim"
)

// CS executes critical sections. Implementations must be safe for use
// by any number of simulated threads.
type CS interface {
	// Critical runs body as one critical section. body may be executed
	// more than once (an aborted transactional attempt runs on to its
	// end with its accesses no-ops, and is retried), so it must be
	// restartable.
	Critical(c *sim.Ctx, body func())
	// Name identifies the scheme in benchmark output.
	Name() string
}

// NoSync runs bodies with no synchronization at all (the unsynchronized
// baseline of the paper's Fig 4 search-and-replace experiment).
type NoSync struct{}

// Critical implements CS.
func (NoSync) Critical(c *sim.Ctx, body func()) { body() }

// Name implements CS.
func (NoSync) Name() string { return "none" }

// Plain guards critical sections with a spin lock and never elides it.
type Plain struct {
	L interface {
		Acquire(c *sim.Ctx)
		Release(c *sim.Ctx)
	}
}

// Critical implements CS.
func (p Plain) Critical(c *sim.Ctx, body func()) {
	p.L.Acquire(c)
	body()
	p.L.Release(c)
}

// Name implements CS.
func (Plain) Name() string { return "lock" }

// Atomic runs each body as a raw best-effort transaction with a simple
// bounded retry and no lock fallback; used by tests that exercise the
// HTM substrate directly. Bodies that repeatedly overflow capacity are
// executed under a global mutex-free last resort: single retry loop
// with backoff (tests keep bodies small enough to commit).
type Atomic struct {
	Sys      *htm.System
	Attempts int
}

// Critical implements CS.
func (a Atomic) Critical(c *sim.Ctx, body func()) {
	n := a.Attempts
	if n <= 0 {
		n = 1 << 20
	}
	for i := 0; i < n; i++ {
		if o := a.Sys.Try(c, body); o.Committed {
			return
		}
	}
	panic("lock.Atomic: transaction never committed")
}

// Name implements CS.
func (Atomic) Name() string { return "htm-raw" }
