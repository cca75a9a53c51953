package native

import (
	"math"
	"sync/atomic"

	"natle/internal/fault"
	"natle/internal/vtime"
)

// Fault is the native-world fault adapter: the same fault.Profile
// vocabulary the simulator's injector speaks (see internal/fault),
// reinterpreted against real goroutines on the wall clock so every
// named chaos schedule runs on both backends.
//
// The mapping, per profile knob:
//
//   - SpuriousAbortRate: a geometric per-access countdown armed (and
//     counted, as on the simulator) at each optimistic attempt; when
//     it fires, the attempt dies exactly as on a failed seqlock
//     validation. Native attempts have no hardware to interrupt them,
//     so this models spurious validation failures.
//     Upgraded writers publish their stores directly and cannot roll
//     back, so (exactly like real TSX, which cannot abort a committed
//     transaction) the countdown only fires while the attempt is
//     still abortable.
//   - SqueezeProb/SqueezeFactor/SqueezeLen: wall-clock capacity
//     squeeze windows during which every attempt gets a small access
//     budget (txAccessBudget / SqueezeFactor); exhausting it aborts
//     the attempt, forcing early fallback — the elision fast path
//     loses its capacity exactly as under sibling-HT pressure.
//   - InvalDelayProb/InvalDelayLen: a commit-path delay — the writer
//     spins for InvalDelayLen just before releasing the sequence
//     word, stretching the window during which concurrent readers
//     fail validation (the native analogue of a delayed cross-socket
//     invalidation).
//   - StallProb/StallLen: a spin-wait injected immediately after any
//     lock acquisition (TLE fallback, native-mutex, native-spin) —
//     preemption while holding the lock, the convoy trigger.
//   - LieOnCapacity/LieOnConflict are inert: native aborts carry no
//     hardware hint bit to lie about (Stats reports zero HintLies).
//
// Draws use the calling thread's seeded RNG, so the *decision
// schedule* is reproducible per (seed, thread) even though wall-clock
// interleaving is not. Counters are atomic; Stats reports them in the
// shared fault.Stats shape.
type Fault struct {
	hot faultHot

	// Cold configuration, read-only after newFault; faultHot is a
	// multiple of 64 bytes, so these never share its lines.
	p         fault.Profile
	squeezeNs int64 // squeeze window length, wall ns
}

// faultCounters groups the injected-fault event counters. They are
// bumped only on the armed path, by whichever thread drew the fault, so
// they may share lines with each other but with nothing hotter.
type faultCounters struct {
	spurious   atomic.Uint64
	squeezes   atomic.Uint64
	squeezedTx atomic.Uint64
	delays     atomic.Uint64
	stalls     atomic.Uint64
}

// faultHot is the concurrently-written core of Fault. squeezeUntil is
// polled by every optimistic attempt in txStart, so it gets a cache
// line to itself: a fault counter bump must not invalidate the line
// the elision fast path reads on every transaction.
type faultHot struct {
	squeezeUntil atomic.Int64 // wall-clock deadline of the open window
	_            [56]byte
	counters     faultCounters
	_            [24]byte
}

// txAccessBudget is the per-attempt access allowance outside squeeze
// windows — effectively unlimited for the repo's workloads, so only a
// squeeze's divided budget ever bites.
const txAccessBudget = 1 << 12

// newFault builds the adapter for a profile (fault.New's defaults
// applied: SqueezeFactor 64, SqueezeLen 20µs, InvalDelayLen 300ns,
// StallLen 30µs; one virtual nanosecond reads as one wall nanosecond,
// the same convention the backoff reuse established).
func newFault(p fault.Profile) *Fault {
	p = fault.New(p, 0).Profile()
	return &Fault{p: p, squeezeNs: int64(p.SqueezeLen / vtime.Nanosecond)}
}

// Stats reports the injected-fault counters.
func (f *Fault) Stats() fault.Stats {
	if f == nil {
		return fault.Stats{}
	}
	return fault.Stats{
		SpuriousAborts: f.hot.counters.spurious.Load(),
		Squeezes:       f.hot.counters.squeezes.Load(),
		SqueezedTx:     f.hot.counters.squeezedTx.Load(),
		InvalDelays:    f.hot.counters.delays.Load(),
		Stalls:         f.hot.counters.stalls.Load(),
	}
}

// randFloat is the thread-RNG uniform draw in [0, 1) used by the
// fault decision points.
func (c *Thread) randFloat() float64 { return float64(c.Rand64()>>11) / (1 << 53) }

// txStart arms one optimistic attempt: it may open a squeeze window,
// and returns the spurious-abort countdown (0 = none) and the access
// budget (0 = unlimited) the attempt runs under.
func (f *Fault) txStart(c *Thread) (countdown, budget int) {
	now := c.w.now()
	if f.p.SqueezeProb > 0 {
		until := f.hot.squeezeUntil.Load()
		if now >= until && c.randFloat() < f.p.SqueezeProb {
			if f.hot.squeezeUntil.CompareAndSwap(until, now+f.squeezeNs) {
				f.hot.counters.squeezes.Add(1)
			}
		}
		if now < f.hot.squeezeUntil.Load() {
			budget = txAccessBudget / f.p.SqueezeFactor
			if budget < 1 {
				budget = 1
			}
			f.hot.counters.squeezedTx.Add(1)
		}
	}
	if f.p.SpuriousAbortRate > 0 {
		// Geometric interarrival by inverse transform, the same draw
		// the simulator's injector makes (u kept away from 0 so Log
		// stays finite).
		u := c.randFloat()
		if u < 1e-12 {
			u = 1e-12
		}
		countdown = int(math.Ceil(math.Log(u) / math.Log(1-f.p.SpuriousAbortRate)))
		if countdown < 1 {
			countdown = 1
		}
		f.hot.counters.spurious.Add(1)
	}
	return countdown, budget
}

// commitDelay spins the committing writer for the profile's
// invalidation delay, stretching the locked window concurrent readers
// must validate across.
func (f *Fault) commitDelay(c *Thread) {
	if f.p.InvalDelayProb <= 0 || c.randFloat() >= f.p.InvalDelayProb {
		return
	}
	f.hot.counters.delays.Add(1)
	c.spinWait(int64(f.p.InvalDelayLen / vtime.Nanosecond))
}

// csStall spins the thread immediately after a lock acquisition with
// the profile's stall probability (preemption while holding the lock).
func (f *Fault) csStall(c *Thread) {
	if f.p.StallProb <= 0 || c.randFloat() >= f.p.StallProb {
		return
	}
	f.hot.counters.stalls.Add(1)
	c.spinWait(int64(f.p.StallLen / vtime.Nanosecond))
}

// txAccess charges one transactional access against the attempt's
// spurious-abort countdown and access budget, killing the attempt when
// either runs out, and reports whether it did. Called only while the
// attempt is live and not yet upgraded to writer.
func (c *Thread) txAccess() bool {
	if c.tx.spurious > 0 {
		c.tx.spurious--
		if c.tx.spurious == 0 {
			c.tx.dead = true
			return true
		}
	}
	if c.tx.budget > 0 {
		c.tx.budget--
		if c.tx.budget == 0 {
			c.tx.dead = true
			return true
		}
	}
	return false
}
