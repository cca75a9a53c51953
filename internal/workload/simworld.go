package workload

import (
	"natle/internal/backend"
	"natle/internal/fault"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/mem"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/vtime"
)

// SimWorld adapts the deterministic simulator to backend.World, so
// backend-agnostic workloads run unchanged on virtual time. It is the
// proof that the backend split costs the simulated path nothing: the
// adapter only forwards to the same engine/system calls the sim-only
// drivers make.
type SimWorld struct {
	Eng *sim.Engine
	Sys *htm.System

	seed int64
	inj  *fault.Fault // nil unless ArmFaults armed one
}

// NewSimWorld builds a simulated world. Nil/zero arguments select the
// workload defaults (large X5-2 profile, fill-socket-first pinning,
// 1Mi words).
func NewSimWorld(prof *machine.Profile, pin machine.PinPolicy, threads int, seed int64, memWords int) *SimWorld {
	if prof == nil {
		prof = machine.LargeX52()
	}
	if pin == nil {
		pin = machine.FillSocketFirst{}
	}
	if memWords <= 0 {
		memWords = 1 << 20
	}
	e := sim.New(prof, pin, threads, seed)
	return &SimWorld{Eng: e, Sys: htm.NewSystem(e, memWords), seed: seed}
}

// ArmFaults implements fault.Target: a deterministic injector seeded
// from the world's seed, installed on its HTM system. Call before Run.
func (w *SimWorld) ArmFaults(p fault.Profile) {
	if p.Enabled() {
		w.inj = fault.New(p, w.seed)
		w.Sys.SetInjector(w.inj)
	}
}

// FaultStats implements fault.Target.
func (w *SimWorld) FaultStats() fault.Stats {
	if w.inj == nil {
		return fault.Stats{}
	}
	return w.inj.Stats
}

// Kind implements backend.World.
func (w *SimWorld) Kind() backend.Kind { return backend.Sim }

// Peek implements backend.World.
func (w *SimWorld) Peek(a int) uint64 { return w.Sys.Mem.Raw(mem.Addr(a)) }

// Run implements backend.World with the repo's standard driver shape:
// a spawning driver thread runs setup, releases the workers from one
// start line, idles, and joins them (see workload.Run).
func (w *SimWorld) Run(threads int, setup func(backend.Ctx), body func(backend.Ctx)) {
	w.Eng.Spawn(nil, func(c *sim.Ctx) {
		setup(&SimCtx{w: w, c: c, thread: -1})
		w.Eng.SpawnTeam(c, threads, func(i int, wc *sim.Ctx) {
			body(&SimCtx{w: w, c: wc, thread: i})
		})
		c.SetIdle(true)
		c.WaitOthers(2 * vtime.Microsecond)
	})
	w.Eng.Run()
}

// SimCtx is the simulated backend.Ctx: a sim thread context bound to
// its world's HTM system, so Load/Store participate in whatever
// transaction the scheme has open on the context.
type SimCtx struct {
	w      *SimWorld
	c      *sim.Ctx
	thread int
}

// Thread implements backend.Ctx (-1 for the setup context).
func (c *SimCtx) Thread() int { return c.thread }

// Socket implements backend.Ctx.
func (c *SimCtx) Socket() int { return c.c.Socket() }

// Rand64 implements backend.Ctx.
func (c *SimCtx) Rand64() uint64 { return c.c.Rand64() }

// Intn implements backend.Ctx.
func (c *SimCtx) Intn(n int) int { return c.c.Intn(n) }

// Now implements backend.Ctx: virtual nanoseconds (vtime counts
// picoseconds; the backend clock contract is nanoseconds on every
// backend).
func (c *SimCtx) Now() int64 { return int64(c.c.Now()) / int64(vtime.Nanosecond) }

// Work implements backend.Ctx.
func (c *SimCtx) Work(n int) { c.c.Work(n) }

// Alloc implements backend.Ctx.
func (c *SimCtx) Alloc(nWords int) int { return int(c.w.Sys.Alloc(c.c, nWords)) }

// Load implements backend.Ctx.
func (c *SimCtx) Load(a int) uint64 { return c.w.Sys.Read(c.c, mem.Addr(a)) }

// Store implements backend.Ctx.
func (c *SimCtx) Store(a int, v uint64) { c.w.Sys.Write(c.c, mem.Addr(a), v) }

// simInstance adapts a simulated scheme.Instance to the
// backend-agnostic scheme.BackendInstance shape.
type simInstance struct {
	inner scheme.Instance
}

func (s simInstance) Critical(c backend.Ctx, body func()) {
	s.inner.Critical(c.(*SimCtx).c, body)
}

func (s simInstance) Exclusive(c backend.Ctx, body func()) {
	s.inner.Exclusive(c.(*SimCtx).c, body)
}

func (s simInstance) Name() string        { return s.inner.Name() }
func (s simInstance) Stats() scheme.Stats { return s.inner.Stats() }

// NewInstance constructs desc on whichever backend w is: the one
// dispatch point between the per-backend factory signatures and the
// uniform BackendInstance the workloads use.
func NewInstance(w backend.World, c backend.Ctx, desc *scheme.Descriptor) scheme.BackendInstance {
	switch w.Kind() {
	case backend.Sim:
		sc := c.(*SimCtx)
		return simInstance{desc.New(sc.w.Sys, sc.c, 0)}
	case backend.Native:
		return desc.NewNative(w, c)
	default:
		panic("workload: unknown backend kind " + string(w.Kind()))
	}
}
