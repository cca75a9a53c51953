// Package sim implements a deterministic discrete-event simulator for
// the machines described by package machine.
//
// Each simulated hardware thread is a coroutine (iter.Pull) of one
// scheduler loop, Engine.Run, so exactly one executes at any instant
// and shared-memory events are processed in strict global virtual-time
// order. A thread runs freely until its local clock passes that of the
// earliest waiting thread; it then names that thread as the hand-off
// target and yields to the loop (Checkpoint), which resumes the target:
// two coroutine switches on Run's goroutine and nothing for the go
// scheduler to do, so host speed does not depend on GOMAXPROCS. Because
// execution is serialized, all simulator state (cache directory,
// transaction sets, statistics) is mutated without locks, and a run is
// fully deterministic given (profile, seed).
//
// A thread parked in WaitUntil is not resumed to poll. Whoever picks the
// next thread (Engine.next) evaluates the parked thread's condition in
// place when that thread reaches the top of the run queue, and while the
// condition is false advances its clock by the poll period and re-queues
// it, exactly as the thread itself would have done: same evaluations,
// same clock advances, same queue operations, on another stack. A false
// condition therefore costs a heap sift instead of two coroutine
// switches, and only a condition that came true resumes its thread.
//
// If a thread panics or the run deadlocks, Run stops every unfinished
// thread itself, one at a time in ID order — each unwinds through its
// deferred functions — and only then panics; no coroutine outlives Run.
//
// Local computation — external work, spin backoff — only advances the
// local clock and is therefore nearly free in host time.
package sim

import (
	"fmt"
	"iter"

	"natle/internal/machine"
	"natle/internal/vtime"
)

// Engine coordinates the simulated threads of one machine instance.
type Engine struct {
	Prof *machine.Profile

	threads []*Ctx
	heap    []*Ctx // min-heap by (now, ID) of runnable, not-running threads
	live    int

	coreLoad []int // threads assigned per core (live)
	planned  int   // expected thread count, used by pinning policies

	policy machine.PinPolicy
	seed   uint64

	// Slack is the out-of-order tolerance of the event ordering: a
	// running thread keeps running until its clock exceeds the
	// earliest waiting thread's clock by more than Slack. A small
	// positive slack batches accesses between coroutine hand-offs
	// (large host-time savings) at the cost of timing error bounded by
	// Slack; it does not affect determinism.
	Slack vtime.Duration

	handoff *Ctx   // thread Run resumes next, named by the one that just yielded or finished
	polling *Ctx   // thread whose WaitUntil condition is being evaluated, on whatever stack
	crash   string // non-empty once a thread panicked or the run deadlocked
	started bool

	// OnThreadFinish, if set, is invoked when a simulated thread's
	// function returns (used by the HTM runtime to recycle per-thread
	// transaction slots for dynamically created threads).
	OnThreadFinish func(c *Ctx)
}

// New creates an engine for profile p. planned is the number of worker
// threads the pinning policy should plan for (it may be exceeded);
// seed makes runs reproducible.
func New(p *machine.Profile, policy machine.PinPolicy, planned int, seed int64) *Engine {
	if policy == nil {
		policy = machine.FillSocketFirst{}
	}
	return &Engine{
		Prof:     p,
		coreLoad: make([]int, p.Cores()),
		planned:  planned,
		policy:   policy,
		seed:     uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567,
		Slack:    100 * vtime.Nanosecond,
	}
}

// Ctx is the execution context of one simulated software thread. All
// simulated-memory operations take a Ctx; the Ctx carries the thread's
// virtual clock, placement, and deterministic RNG.
type Ctx struct {
	ID int

	eng    *Engine
	now    vtime.Time
	cond   func() bool    // non-nil while in WaitUntil: the condition next() evaluates
	poll   vtime.Duration // and the idle step between two evaluations
	core   int
	socket int
	rng    uint64
	next   func() (struct{}, bool) // Run resumes the thread's coroutine
	stop   func()                  // Run unwinds it after a crash
	yield  func(struct{}) bool     // the thread parks itself

	pinIdx   int    // index given to the pinning policy
	idle     bool   // excluded from core contention (see SetIdle)
	frozen   bool   // clock, RNG and checkpoints inert (see Freeze)
	accesses uint64 // shared-memory accesses, drives periodic migration

	// Payload slots for higher layers (e.g. the HTM runtime keeps its
	// per-thread transaction state here to avoid map lookups).
	TxSlot any
}

// Now returns the thread's local virtual time.
func (c *Ctx) Now() vtime.Time { return c.now }

// Core returns the core the thread currently runs on.
func (c *Ctx) Core() int { return c.core }

// Socket returns the socket the thread currently runs on. This is the
// "library call" NATLE uses (cached and rechecked infrequently by the
// lock itself, as in the paper).
func (c *Ctx) Socket() int { return c.socket }

// Engine returns the owning engine.
func (c *Ctx) Engine() *Engine { return c.eng }

// SiblingActive reports whether another live thread shares this
// thread's core (hyperthread contention).
func (c *Ctx) SiblingActive() bool { return c.eng.coreLoad[c.core] > 1 }

// SetIdle marks the thread as not contending for its core (e.g. a
// driver thread blocked in a join while workers run). An idle thread
// does not count toward hyperthread-sibling contention. It may still
// execute; only its effect on co-located threads changes.
func (c *Ctx) SetIdle(idle bool) {
	if idle == c.idle {
		return
	}
	c.idle = idle
	if idle {
		c.eng.coreLoad[c.core]--
	} else {
		c.eng.coreLoad[c.core]++
	}
}

// Freeze makes the thread's clock, RNG and checkpoints inert until Thaw:
// Advance, AdvanceIdle, Work, Checkpoint and Yield do nothing, and
// Rand64, Intn and Float64 return 0 without drawing. The HTM runtime
// freezes a thread whose transaction attempt has aborted, so the rest
// of the attempt's body, which runs on to its end with every access a
// no-op, costs no virtual time, consumes no random bits and gives way
// to no one: the thread resumes exactly where the abort left it.
func (c *Ctx) Freeze() { c.frozen = true }

// Thaw ends Freeze.
func (c *Ctx) Thaw() { c.frozen = false }

// Advance adds execution cost d to the local clock, inflated by the
// hyperthread-sibling slowdown when the core is shared.
func (c *Ctx) Advance(d vtime.Duration) {
	if c.frozen {
		return
	}
	if c.SiblingActive() {
		d = d.Scale(c.eng.Prof.SiblingSlowdown)
	}
	c.now = c.now.Add(d)
}

// AdvanceIdle adds waiting time d to the local clock without the
// sibling slowdown (an idle hyperthread does not contend for the core).
func (c *Ctx) AdvanceIdle(d vtime.Duration) {
	if !c.frozen {
		c.now = c.now.Add(d)
	}
}

// Work simulates n iterations of the microbenchmarks' external-work
// function.
func (c *Ctx) Work(n int) {
	c.Advance(vtime.Duration(n) * c.eng.Prof.WorkIter)
}

// Rand64 returns the next value of the thread's deterministic RNG
// (xorshift64*).
func (c *Ctx) Rand64() uint64 {
	if c.frozen {
		return 0
	}
	x := c.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	c.rng = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a deterministic pseudo-random int in [0, n).
func (c *Ctx) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(c.Rand64() % uint64(n))
}

// Float64 returns a deterministic pseudo-random float64 in [0, 1).
func (c *Ctx) Float64() float64 {
	return float64(c.Rand64()>>11) / (1 << 53)
}

// Checkpoint yields to the earliest waiting thread if that thread has
// an earlier virtual time. Every simulated shared-memory access calls
// this before taking effect, which is what gives the simulation its
// strict global ordering.
func (c *Ctx) Checkpoint() {
	if !c.frozen {
		c.checkpoint(false)
	}
}

// checkpoint does the per-access bookkeeping and, if c has run past the
// earliest waiting thread by Slack or more, gives way to it. With
// parked set, c is a WaitUntil thread being polled in place: it cannot
// park (it already is, or this is not its stack), so the overdue report
// is all the caller gets and queueing c is left to it. The flag, rather
// than a test and a switch as two functions, keeps Checkpoint inlinable
// and its early return one call deep (1.7 ns against 2.4).
func (c *Ctx) checkpoint(parked bool) (overdue bool) {
	e := c.eng
	c.accesses++
	if c.accesses&0x3FF == 0 && e.policy.Dynamic() {
		e.migrate(c)
	}
	if len(e.heap) == 0 {
		return false
	}
	if m := e.heap[0]; c.now < m.now.Add(e.Slack) || (c.now == m.now && c.ID < m.ID) {
		return false
	}
	if !parked {
		c.giveWay()
	}
	return true
}

// giveWay queues c and parks it until the scheduler hands control back,
// unless c is still the earliest thread once queued.
func (c *Ctx) giveWay() {
	e := c.eng
	if e.polling != nil {
		panic(fmt.Sprintf("sim: simulated access inside the WaitUntil condition of thread %d", e.polling.ID))
	}
	e.push(c)
	if n := e.next(); n != c {
		e.handoff = n
		if !c.yield(struct{}{}) {
			panic(crashToken{})
		}
	}
}

// next removes and returns the thread to run now: the earliest queued
// thread that is not waiting on a false WaitUntil condition. Threads it
// finds waiting it polls in place (see the package comment).
func (e *Engine) next() *Ctx {
	for {
		n := e.pop()
		if n.cond == nil || n.pollInPlace() {
			return n
		}
		e.push(n)
	}
}

// pollInPlace is the WaitUntil loop of thread c, run by whichever thread
// is executing: evaluate the condition and, while it is false, idle for
// one poll period, for as long as c would not have had to give way. It
// reports true once the condition holds, with c.cond cleared, and false
// when c must be queued again.
func (c *Ctx) pollInPlace() bool {
	e := c.eng
	for {
		e.polling = c
		ok := c.cond()
		e.polling = nil
		if ok {
			c.cond = nil
			return true
		}
		c.AdvanceIdle(c.poll)
		if c.checkpoint(true) {
			return false
		}
	}
}

// Yield unconditionally offers the processor to the earliest waiting
// thread (used by spin loops after advancing their backoff time).
func (c *Ctx) Yield() { c.Checkpoint() }

// crashToken unwinds a parked thread that Run stops after a crash.
type crashToken struct{}

// SpawnOn is Spawn with an explicit core assignment, bypassing the
// pinning policy (used by delegation servers and application threads
// that pin themselves).
func (e *Engine) SpawnOn(parent *Ctx, core int, fn func(*Ctx)) *Ctx {
	c := e.Spawn(parent, fn)
	e.coreLoad[c.core]--
	c.core = core
	c.socket = e.Prof.SocketOfCore(core)
	e.coreLoad[core]++
	return c
}

// Spawn creates a simulated thread running fn, placed by the engine's
// pinning policy. When called from a running thread (parent non-nil
// semantics are implicit: the caller is the one thread executing), the
// child starts after the configured spawn/pin overhead; the usual
// pattern is to Spawn all workers from a driver thread. Spawn must be
// called either before Run or by the currently running thread.
func (e *Engine) Spawn(parent *Ctx, fn func(*Ctx)) *Ctx {
	c := e.create(parent, fn)
	e.push(c)
	return c
}

// SpawnTeam is the start line of a trial: it creates n threads exactly
// as n successive Spawn(parent, ...) calls would (IDs, placement, RNG
// seeds, the parent's clock advanced by n spawn/pin overheads), thread i
// running fn(i, ·), and queues them only once the last exists, every
// clock set to the parent's. That instant is returned. No thread of the
// team executes anything before it, and holding them costs nothing: they
// have not run yet, so there is no condition to poll.
func (e *Engine) SpawnTeam(parent *Ctx, n int, fn func(i int, w *Ctx)) (start vtime.Time) {
	first := len(e.threads)
	for i := 0; i < n; i++ {
		e.create(parent, func(w *Ctx) { fn(i, w) })
	}
	for _, c := range e.threads[first:] {
		c.now = parent.now
		e.push(c)
	}
	return parent.now
}

// create builds a thread and accounts for it; queueing it is the
// caller's.
func (e *Engine) create(parent *Ctx, fn func(*Ctx)) *Ctx {
	c := &Ctx{
		ID:     len(e.threads),
		eng:    e,
		pinIdx: 0,
	}
	c.rng = e.seed ^ (uint64(c.ID+1) * 0xD1B54A32D192ED03)
	if c.rng == 0 {
		c.rng = 0x9E3779B97F4A7C15
	}
	// Worker placement: the driver thread (ID 0) does not count toward
	// the pinning sequence, mirroring the benchmark processes where the
	// main thread is unpinned and idle during trials.
	c.pinIdx = len(e.threads) - 1
	if c.pinIdx < 0 {
		c.pinIdx = 0
	}
	if e.policy.Dynamic() {
		c.core = e.leastLoadedCore()
	} else {
		c.core = e.policy.Place(e.Prof, c.pinIdx, e.planned)
	}
	c.socket = e.Prof.SocketOfCore(c.core)
	if parent != nil {
		cost := e.Prof.SpawnOverhead
		if !e.policy.Dynamic() {
			cost += e.Prof.PinOverhead
		}
		parent.Advance(cost)
		c.now = parent.now
	}
	e.threads = append(e.threads, c)
	e.live++
	e.coreLoad[c.core]++
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		e.body(c, fn)
	})
	return c
}

func (e *Engine) body(c *Ctx, fn func(*Ctx)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashToken); !ok && e.crash == "" {
				id := c.ID
				if e.polling != nil {
					id = e.polling.ID // the panic came out of that thread's condition
				}
				e.crash = fmt.Sprintf("sim thread %d: %v", id, r)
			}
		}
	}()
	fn(c)
	e.finish(c)
}

func (e *Engine) finish(c *Ctx) {
	if e.OnThreadFinish != nil {
		e.OnThreadFinish(c)
	}
	e.live--
	if !c.idle {
		e.coreLoad[c.core]--
	}
	switch {
	case e.live == 0:
		e.handoff = nil // ends Run's loop
	case len(e.heap) == 0:
		e.crash = "sim: deadlock — live threads but empty run queue"
	default:
		e.handoff = e.next()
	}
}

// Live returns the number of simulated threads that have not finished.
func (e *Engine) Live() int { return e.live }

// Threads returns all threads ever spawned (finished or not).
func (e *Engine) Threads() []*Ctx { return e.threads }

// Run drives the simulation until every simulated thread returns. It
// re-panics any panic raised inside a simulated thread, after stopping
// the threads still parked (see the package comment).
func (e *Engine) Run() {
	if e.started {
		panic("sim: Run called twice")
	}
	e.started = true
	if len(e.heap) == 0 {
		return
	}
	for n := e.next(); n != nil && e.crash == ""; n = e.handoff {
		n.next()
	}
	if e.crash != "" {
		for _, c := range e.threads {
			c.stop()
		}
		panic(e.crash)
	}
}

// WaitOthers blocks the calling (driver) thread in virtual time until
// it is the only live thread, polling in poll-sized idle steps.
func (c *Ctx) WaitOthers(poll vtime.Duration) {
	c.WaitUntil(poll, func() bool { return c.eng.live <= 1 })
}

// WaitUntil blocks the calling thread in virtual time until cond()
// becomes true, polling in poll-sized idle steps: cond is called on
// entry and then exactly once per poll tick, in global virtual-time
// order with every other thread's accesses, and WaitUntil returns at
// the tick where it first held. While the thread is parked the
// scheduler calls cond on another thread's stack, so cond may read and
// write host state only: no simulated access (a Checkpoint that would
// switch panics, naming this thread), and nothing that depends on which
// goroutine runs it. A panic inside cond is this thread's panic.
func (c *Ctx) WaitUntil(poll vtime.Duration, cond func() bool) {
	c.cond, c.poll = cond, poll
	if !c.pollInPlace() {
		c.giveWay() // returns once next() has seen cond hold
	}
}

func (e *Engine) leastLoadedCore() int {
	best, bestLoad := 0, int(^uint(0)>>1)
	// Scan sockets round-robin so ties spread across sockets, like the
	// Linux scheduler's even distribution observed in the paper.
	p := e.Prof
	for off := 0; off < p.CoresPerSocket; off++ {
		for s := 0; s < p.Sockets; s++ {
			core := s*p.CoresPerSocket + off
			if e.coreLoad[core] < bestLoad {
				best, bestLoad = core, e.coreLoad[core]
			}
		}
	}
	return best
}

// migrate rebalances thread c to a less-loaded core, charging the OS
// migration cost. Called periodically for dynamic (unpinned) policies.
func (e *Engine) migrate(c *Ctx) {
	best := e.leastLoadedCore()
	if e.coreLoad[best] >= e.coreLoad[c.core]-1 {
		return // not worth moving
	}
	if !c.idle {
		e.coreLoad[c.core]--
		e.coreLoad[best]++
	}
	c.core = best
	c.socket = e.Prof.SocketOfCore(best)
	c.Advance(e.Prof.MigrateCost)
}

// --- min-heap of threads ordered by (now, ID) ---

func lessCtx(a, b *Ctx) bool {
	if a.now != b.now {
		return a.now < b.now
	}
	return a.ID < b.ID
}

func (e *Engine) push(c *Ctx) {
	h := append(e.heap, c)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if lessCtx(h[p], h[i]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	e.heap = h
}

func (e *Engine) pop() *Ctx {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && lessCtx(h[l], h[small]) {
			small = l
		}
		if r < len(h) && lessCtx(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	e.heap = h
	return top
}
