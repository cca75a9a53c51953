package native

import (
	"sync/atomic"

	"natle/internal/backend"
	"natle/internal/scheme"
	"natle/internal/tle"
	"natle/internal/vtime"
)

// DefaultAttempts is the native-tle optimistic retry budget before
// the fallback lock. Software validation aborts are cheaper than a
// hardware abort storm, so the budget is smaller than the paper's
// TLE-20.
const DefaultAttempts = 8

// maxLockHeldWaits bounds how many lock-held deferrals one critical
// section absorbs before the starvation watchdog sends it to the
// fallback path (the native mirror of tle.Policy.MaxWaits).
const maxLockHeldWaits = 1 << 10

// TLE is the native best-effort transaction scheme: a per-lock
// sequence word in transactional-mutex style. Even sequence =
// unlocked; odd = a writer (upgraded optimist or fallback) holds it.
// Optimistic sections validate the sequence on every load and upgrade
// to writer on first store; the sequence only ever grows, so a reader
// that observes an unchanged sequence across its reads saw a
// consistent snapshot.
//
//natlevet:percpu
type TLE struct {
	// seq is polled on every transactional load by every optimistic
	// reader, so it owns a cache line: a counter bump must not
	// invalidate the word the whole read side validates against.
	seq atomic.Uint64
	_   [56]byte

	// st's counters are bumped by every thread on every attempt — true
	// sharing, which padding between them cannot fix; the block only
	// has to stay off seq's line.
	st stats
	_  [8]byte

	// Cold, read-only after NewTLE.
	attempts int
	backoff  tle.Backoff
	_        [40]byte
}

// stats is the native schemes' atomic counter block, snapshotted into
// the uniform scheme.Stats facade.
type stats struct {
	ops           atomic.Uint64 // critical sections executed
	attempts      atomic.Uint64 // optimistic attempts started
	commits       atomic.Uint64 // optimistic attempts that validated
	aborts        atomic.Uint64 // validation/upgrade failures
	lockHeldWaits atomic.Uint64 // attempts deferred on an odd sequence
	fallbacks     atomic.Uint64 // sections that took the fallback lock
	starvations   atomic.Uint64 // watchdog-forced fallbacks
}

// tleStats renders the counters in the shared tle.Stats shape:
// validation failures count as conflict aborts (index htm.Conflict),
// which is what they are — another thread's write interfered.
func (s *stats) tleStats() tle.Stats {
	t := tle.Stats{
		Ops:           s.ops.Load(),
		Attempts:      s.attempts.Load(),
		Commits:       s.commits.Load(),
		Fallbacks:     s.fallbacks.Load(),
		LockHeldWaits: s.lockHeldWaits.Load(),
		Starvations:   s.starvations.Load(),
	}
	t.Aborts[1] = s.aborts.Load()
	return t
}

// NewTLE builds a native-tle lock. attempts <= 0 selects
// DefaultAttempts; the zero backoff selects the repo-wide capped
// full-jitter defaults.
func NewTLE(attempts int, backoff tle.Backoff) *TLE {
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	return &TLE{attempts: attempts, backoff: backoff}
}

// Name implements backend.CS.
func (t *TLE) Name() string { return "native-tle" }

// Stats implements scheme.BackendInstance.
func (t *TLE) Stats() scheme.Stats { return scheme.Stats{TLE: t.st.tleStats()} }

// Critical implements backend.CS: optimistic attempts with capped
// full-jitter backoff, then the exclusive fallback.
//
//natlevet:hotpath
func (t *TLE) Critical(bc backend.Ctx, body func()) {
	c := bc.(*Thread)
	if c.tx.active {
		// Flat nesting: the enclosing optimistic section is the
		// atomicity domain (the workloads never nest, but a body that
		// does must not corrupt the thread's single txn slot).
		body()
		return
	}
	t.st.ops.Add(1)
	waits := 0
	for attempt := 0; attempt < t.attempts; {
		s := t.seq.Load()
		if s&1 == 1 {
			// A writer holds the sequence lock. Defer without burning
			// an attempt (anti-lemming), bounded by the watchdog.
			t.st.lockHeldWaits.Add(1)
			waits++
			if waits > maxLockHeldWaits {
				t.st.starvations.Add(1)
				break
			}
			c.gap(attempt, t.backoff)
			continue
		}
		t.st.attempts.Add(1)
		if t.try(c, s, body) {
			t.st.commits.Add(1)
			return
		}
		t.st.aborts.Add(1)
		attempt++
		c.gap(attempt, t.backoff)
	}
	t.st.fallbacks.Add(1)
	t.fallback(c, body)
}

// Exclusive implements scheme.BackendInstance: the sequence word held
// as a writer from the start, so no optimistic section validates across
// it.
func (t *TLE) Exclusive(c backend.Ctx, body func()) {
	t.st.ops.Add(1)
	t.st.fallbacks.Add(1)
	t.fallback(c.(*Thread), body)
}

// fallback acquires the sequence word exclusively and runs body
// pessimistically. It is its own function so the release can be
// deferred — a panicking body must not leave the sequence odd and
// wedge every later section — without Critical's optimistic return
// paying for a defer frame.
//
//natlevet:hotpath
func (t *TLE) fallback(c *Thread, body func()) {
	s := t.lockAcquire(c)
	defer t.seq.Store(s + 2)
	if inj := c.w.inj; inj != nil {
		inj.csStall(c)
	}
	body()
}

// try runs one optimistic attempt against sequence snapshot start.
// The attempt unwinds via an abortSignal panic from Thread.Load/Store
// on validation or upgrade failure. It is the seqlock read section:
// blocking on any lock between the snapshot and the validation would
// deadlock against a writer waiting for readers to drain.
//
//natlevet:hotpath
//natlevet:seqlock
func (t *TLE) try(c *Thread, start uint64, body func()) (ok bool) {
	c.tx = txn{active: true, start: start, seq: &t.seq}
	if inj := c.w.inj; inj != nil {
		c.tx.spurious, c.tx.budget = inj.txStart(c)
	}
	defer func() {
		writer := c.tx.writer
		c.tx = txn{}
		switch r := recover(); {
		case r == nil:
			if writer {
				// Writer commit: release the sequence lock, advancing
				// past every snapshot taken before our upgrade. An
				// injected commit delay stretches the held window first
				// (concurrent readers keep failing validation), the
				// native face of a delayed cross-socket invalidation.
				if inj := c.w.inj; inj != nil {
					inj.commitDelay(c)
				}
				t.seq.Store(start + 2)
				ok = true
			} else {
				// Read-only commit: every load validated individually
				// and the sequence never returns to an old value, so
				// one final check covers the full read window.
				ok = t.seq.Load() == start
			}
		default:
			if _, abort := r.(abortSignal); !abort {
				if writer {
					// A real panic (workload bug) must propagate, but
					// not while wedging every other thread on an
					// odd sequence.
					t.seq.Store(start + 2)
				}
				panic(r)
			}
			// Aborted attempt. Upgraded writers never abort (their
			// loads and stores are direct), so there is no lock to
			// release here.
		}
	}()
	body()
	return
}

// lockAcquire spins until it owns the sequence word (even -> odd) and
// returns the even value it acquired from.
//
//natlevet:hotpath
func (t *TLE) lockAcquire(c *Thread) uint64 {
	for i := 0; ; i++ {
		s := t.seq.Load()
		if s&1 == 0 && t.seq.CompareAndSwap(s, s+1) {
			return s
		}
		a := i
		if a > 6 {
			a = 6
		}
		c.gap(a, t.backoff)
	}
}

// gap spins for one capped full-jitter backoff draw. The shared
// tle.Backoff works in virtual-time units (picoseconds); one virtual
// nanosecond is re-interpreted as one wall-clock nanosecond here,
// preserving the bounds (75ns base, 2.4us cap) and the jitter shape.
//
//natlevet:hotpath
func (c *Thread) gap(attempt int, b tle.Backoff) {
	c.spinWait(int64(b.Gap(c, attempt)) / int64(vtime.Nanosecond))
}
