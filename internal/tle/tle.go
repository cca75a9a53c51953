// Package tle implements transactional lock elision [Dice et al. 2009]
// over the simulated HTM: critical sections bracketed by lock
// acquire/release are executed inside hardware transactions, falling
// back to the real lock after repeated failures.
//
// The retry-policy matrix of the paper's Section 3.1 is expressed by
// Policy: the number of transactional attempts, whether a clear
// hardware hint bit forces immediate fallback (the "optimization"
// common on small machines that the paper shows to be harmful on large
// ones), and whether attempts that find the lock held are counted
// (disabling the anti-lemming-effect optimization).
package tle

import (
	"fmt"

	"natle/internal/htm"
	"natle/internal/sim"
	"natle/internal/spinlock"
	"natle/internal/telemetry"
)

// DefaultMaxWaits bounds the uncounted anti-lemming deferrals per
// critical section before the starvation watchdog forces the fallback
// lock.
const DefaultMaxWaits = 64

// Policy selects a TLE retry policy.
type Policy struct {
	// Attempts is the number of transactional attempts before falling
	// back to the lock (5 and 20 in the paper).
	Attempts int
	// HonorHint falls back to the lock immediately when a transaction
	// aborts with the hardware hint bit clear (typically overflow).
	HonorHint bool
	// CountLockHeld counts attempts that abort because the lock is
	// held. When false (the default, and the paper's recommendation),
	// such attempts are not counted and the transaction is not retried
	// until the lock is released, avoiding the lemming effect.
	CountLockHeld bool
	// Backoff shapes the randomized delay between an abort and the next
	// transactional attempt (zero value = package defaults).
	Backoff Backoff
	// MaxWaits is the starvation watchdog: the number of uncounted
	// anti-lemming deferrals (lock-held waits and uncounted lock-held
	// aborts) one critical section tolerates before giving up on
	// elision and acquiring the lock. 0 means DefaultMaxWaits; negative
	// disables the watchdog (the pre-hardening unbounded behaviour).
	MaxWaits int
	// Breaker, when non-nil, arms the per-lock HTM circuit breaker:
	// when the windowed abort rate stays pathological the lock degrades
	// to pure mutual exclusion and periodically probes for recovery.
	// A pointer keeps Policy comparable (scheme option merging relies
	// on comparing against the zero Policy).
	Breaker *BreakerConfig
}

// Name returns the paper's name for the policy (e.g. "TLE-20",
// "TLE-5-hint-bit", "TLE-20-count-lock").
func (p Policy) Name() string {
	n := fmt.Sprintf("TLE-%d", p.Attempts)
	if p.HonorHint {
		n += "-hint-bit"
	}
	if p.CountLockHeld {
		n += "-count-lock"
	}
	if p.Breaker != nil {
		n += "-breaker"
	}
	return n
}

// TLE20 is the common policy used throughout the paper's Section 5.
func TLE20() Policy { return Policy{Attempts: 20} }

// Stats counts per-lock elision events.
type Stats struct {
	Ops                  uint64 // critical sections executed
	Attempts             uint64 // transactional attempts
	Commits              uint64
	Aborts               [telemetry.NumCodes]uint64 // by htm.Code
	Fallbacks            uint64                     // critical sections that took the lock
	CommitsAfterNoHint   uint64                     // commits preceded by >=1 hint-clear abort (Fig 2b)
	LockHeldWaits        uint64                     // attempts deferred because the lock was held
	CommitsAfterCapacity uint64                     // commits preceded by >=1 capacity abort
	Starvations          uint64                     // watchdog-forced fallbacks (wait bound hit)
	BreakerTrips         uint64                     // breaker openings
	BreakerProbes        uint64                     // half-open probe critical sections
	BreakerRecoveries    uint64                     // probes that committed and closed the breaker
	BreakerSkips         uint64                     // critical sections sent straight to the lock
}

// Sub returns the counter deltas s - t.
func (s Stats) Sub(t Stats) Stats { return telemetry.Sub(s, t) }

// TotalAborts sums aborts over all condition codes.
func (s *Stats) TotalAborts() uint64 {
	var n uint64
	for _, a := range s.Aborts {
		n += a
	}
	return n
}

// AbortRate returns aborted attempts / started attempts, 0 when no
// attempts were made (matching htm.Stats.AbortRate's guard).
func (s *Stats) AbortRate() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return float64(s.TotalAborts()) / float64(s.Attempts)
}

// String renders the counters compactly for logs and test failures.
func (s Stats) String() string {
	out := fmt.Sprintf(
		"ops=%d attempts=%d commits=%d aborts=%d rate=%.1f%% fallbacks=%d lock-held-waits=%d",
		s.Ops, s.Attempts, s.Commits, s.TotalAborts(),
		100*s.AbortRate(), s.Fallbacks, s.LockHeldWaits)
	if s.Starvations > 0 {
		out += fmt.Sprintf(" starvations=%d", s.Starvations)
	}
	if s.BreakerTrips > 0 || s.BreakerSkips > 0 {
		out += fmt.Sprintf(" breaker-trips=%d probes=%d recoveries=%d skips=%d",
			s.BreakerTrips, s.BreakerProbes, s.BreakerRecoveries, s.BreakerSkips)
	}
	return out
}

// Lock is an elidable lock.
type Lock struct {
	sys *htm.System
	sl  *spinlock.Lock
	pol Policy
	id  telemetry.LockID
	br  *breaker // nil unless Policy.Breaker is set

	Stats Stats
}

// New allocates a TLE lock whose lock word is homed on the given
// socket.
func New(sys *htm.System, c *sim.Ctx, socket int, pol Policy) *Lock {
	if pol.Attempts <= 0 {
		pol.Attempts = 20
	}
	l := &Lock{
		sys: sys,
		sl:  spinlock.New(sys, c, socket),
		pol: pol,
		id:  sys.Recorder().RegisterLock(pol.Name()),
	}
	if pol.Breaker != nil {
		l.br = newBreaker(*pol.Breaker)
	}
	return l
}

// BreakerOpen reports whether the circuit breaker is currently open
// (HTM degraded to pure mutual exclusion). Always false without a
// breaker. Tests use this to observe the state machine.
func (l *Lock) BreakerOpen() bool { return l.br != nil && l.br.open }

// TelemetryID returns the lock's id in the telemetry recorder it was
// registered with (NoLock under the no-op recorder).
func (l *Lock) TelemetryID() telemetry.LockID { return l.id }

// Name identifies the lock by its policy in benchmark output.
func (l *Lock) Name() string { return l.pol.Name() }

// Inner returns the fallback spin lock (used by tests).
func (l *Lock) Inner() *spinlock.Lock { return l.sl }

// Critical runs body as one critical section: it elides the lock with
// up to Policy.Attempts transactions and falls back to acquiring it. With a
// breaker armed, an open breaker routes the critical section straight
// to the lock (periodically half-opening to probe for HTM recovery);
// the starvation watchdog bounds the otherwise-uncounted anti-lemming
// deferrals so a thread facing a permanently held (or permanently
// aborting) lock still reaches the fallback.
func (l *Lock) Critical(c *sim.Ctx, body func()) {
	l.Stats.Ops++
	l.sys.SetLockTag(c, l.id)

	budget := l.pol.Attempts
	probing := false
	if l.br != nil {
		switch l.br.admit(c.Now()) {
		case admitSkip:
			l.Stats.BreakerSkips++
			l.fallback(c, body)
			return
		case admitProbe:
			probing = true
			l.Stats.BreakerProbes++
			if pa := l.br.cfg.ProbeAttempts; pa < budget {
				budget = pa
			}
		case admitElide:
			// Closed breaker: elide with the full attempt budget.
		}
	}

	maxWaits := l.pol.MaxWaits
	if maxWaits == 0 {
		maxWaits = DefaultMaxWaits
	}

	attempts, waits := 0, 0
	hadNoHint := false
	hadCapacity := false
	committed := false
	starved := false
	for attempts < budget {
		if !l.pol.CountLockHeld && l.sl.Held(c) {
			// Anti-lemming: do not even start a transaction while the
			// lock is held; wait (uncounted) for its release — but only
			// up to the watchdog bound.
			l.Stats.LockHeldWaits++
			if waits++; maxWaits > 0 && waits > maxWaits {
				starved = true
				break
			}
			l.sl.WaitFree(c)
		}
		l.Stats.Attempts++
		o := l.sys.Try(c, func() {
			if l.sl.Held(c) {
				l.sys.Abort(c, htm.CodeLockHeld)
				return
			}
			body()
		})
		if l.br != nil && o.Code != htm.CodeLockHeld {
			// Lock-held aborts say nothing about HTM health, so they do
			// not feed the breaker window. Probe attempts are judged by
			// probeResult below, not by the window (record ignores them
			// while the breaker is open).
			if l.br.record(c.Now(), !o.Committed) {
				l.Stats.BreakerTrips++
				l.sys.Recorder().Breaker(c.Now(), l.sys.Slot(c), c.Socket(), l.id, true)
			}
		}
		if o.Committed {
			committed = true
			l.Stats.Commits++
			if hadNoHint {
				l.Stats.CommitsAfterNoHint++
			}
			if hadCapacity {
				l.Stats.CommitsAfterCapacity++
			}
			break
		}
		l.Stats.Aborts[o.Code]++
		if o.Code == htm.CodeLockHeld {
			if l.pol.CountLockHeld {
				attempts++
			} else if waits++; maxWaits > 0 && waits > maxWaits {
				// An uncounted lock-held abort is also a deferral: bound
				// it, or a held lock plus CountLockHeld=false livelocks.
				starved = true
				break
			}
			// Not counted otherwise; loop re-enters the wait-free path.
			continue
		}
		if o.Code == htm.CodeCapacity {
			hadCapacity = true
		}
		if !o.Hint {
			hadNoHint = true
			if l.pol.HonorHint {
				break
			}
		}
		// Capped exponential backoff with jitter: randomization
		// desynchronizes retrying threads (on real hardware abort
		// handling and scheduling noise do this for free; without it the
		// deterministic simulator produces lock-step retry herds that
		// re-abort each other indefinitely), and the exponential growth
		// sheds offered load while contention persists.
		c.AdvanceIdle(l.pol.Backoff.Gap(c, attempts))
		c.Yield()
		attempts++
	}

	if probing {
		l.br.probeResult(c.Now(), committed)
		if committed {
			l.Stats.BreakerRecoveries++
			l.sys.Recorder().Breaker(c.Now(), l.sys.Slot(c), c.Socket(), l.id, false)
		}
	}
	if committed {
		return
	}
	if starved {
		l.Stats.Starvations++
	}
	l.fallback(c, body)
}

// Exclusive runs the critical section under the real lock without
// attempting elision (scheme.Instance.Exclusive).
func (l *Lock) Exclusive(c *sim.Ctx, body func()) {
	l.Stats.Ops++
	l.fallback(c, body)
}

// fallback runs the critical section under the real lock.
func (l *Lock) fallback(c *sim.Ctx, body func()) {
	l.Stats.Fallbacks++
	l.sl.Acquire(c)
	acquiredAt := c.Now()
	body()
	l.sl.Release(c)
	l.sys.Recorder().Fallback(c.Now(), l.sys.Slot(c), c.Socket(), l.id,
		c.Now().Sub(acquiredAt))
}
