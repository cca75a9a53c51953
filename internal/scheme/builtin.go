package scheme

import (
	"natle/internal/cohort"
	"natle/internal/htm"
	"natle/internal/natle"
	"natle/internal/sim"
	"natle/internal/spinlock"
	"natle/internal/tle"
)

// The core schemes of the paper's evaluation. Extensions live in their
// own files (tlehint.go, atomic.go) to demonstrate that a new scheme
// is one file in this package and nothing else.
func init() {
	Register(&Descriptor{
		Name:    "lock",
		Summary: "plain test-and-test-and-set spin lock, never elided",
		Mutex:   true,
		Robust:  true,
		Batch:   true,
		Make: func(sys *htm.System, c *sim.Ctx, socket int, _ Options) Instance {
			return plain{spinlock.New(sys, c, socket), "lock"}
		},
	})
	Register(&Descriptor{
		Name:    "tle",
		Summary: "transactional lock elision (paper Section 3; default policy TLE-20)",
		Mutex:   true,
		Robust:  true,
		Batch:   true,
		Make: func(sys *htm.System, c *sim.Ctx, socket int, opt Options) Instance {
			return tleInstance{tle.New(sys, c, socket, resolveTLE(opt.TLE))}
		},
	})
	Register(&Descriptor{
		Name:    "natle",
		Summary: "NUMA-aware TLE: per-lock adaptive socket throttling (paper Section 4)",
		Mutex:   true,
		Robust:  true,
		Batch:   true,
		Make: func(sys *htm.System, c *sim.Ctx, socket int, opt Options) Instance {
			inner := tle.New(sys, c, socket, resolveTLE(opt.TLE))
			return natleInstance{natle.New(sys, c, inner, ResolveNATLE(opt.NATLE))}
		},
	})
	Register(&Descriptor{
		Name:    "cohort",
		Summary: "NUMA-aware cohort lock, no elision (related-work baseline)",
		Mutex:   true,
		Robust:  true,
		Batch:   true,
		Make: func(sys *htm.System, c *sim.Ctx, _ int, _ Options) Instance {
			return plain{cohort.New(sys, c, 0), "cohort"}
		},
	})
	Register(&Descriptor{
		Name:    "none",
		Summary: "no synchronization (Fig 4 baseline; read-only/benign races only)",
		Mutex:   false,
		Robust:  true,
		Make: func(_ *htm.System, _ *sim.Ctx, _ int, _ Options) Instance {
			return noSync{}
		},
	})
}

// plain guards critical sections with a lock it never elides: the spin
// lock of "lock" or the cohort lock of "cohort". It has no counters of
// its own; its lock's accesses show in htm.Stats and the telemetry
// recorder.
type plain struct {
	l interface {
		Acquire(c *sim.Ctx)
		Release(c *sim.Ctx)
	}
	name string
}

func (p plain) Critical(c *sim.Ctx, body func()) {
	p.l.Acquire(c)
	body()
	p.l.Release(c)
}

func (p plain) Exclusive(c *sim.Ctx, body func()) { p.Critical(c, body) }
func (p plain) Name() string                      { return p.name }
func (plain) Stats() Stats                        { return Stats{} }

// noSync runs bodies with no synchronization at all (the
// unsynchronized baseline of the paper's Fig 4 search-and-replace
// experiment).
type noSync struct{}

func (noSync) Critical(_ *sim.Ctx, body func())  { body() }
func (noSync) Exclusive(_ *sim.Ctx, body func()) { body() }
func (noSync) Name() string                      { return "none" }
func (noSync) Stats() Stats                      { return Stats{} }
