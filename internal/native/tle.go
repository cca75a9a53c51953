package native

import (
	"sync"
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

// DefaultBackoffBase is native-tle's first-retry bound when the
// configured backoff leaves the base zero: four times the simulator's
// tle.DefaultBackoffBase. A simulated abort pays the hardware's abort
// latency before its gap, and a native one used to pay ~190 ns of panic
// unwinding; a dead native attempt costs nothing, so the gap is all the
// spacing a retry gets. At 75 ns a loser is back inside the winner's
// next section: two goroutines incrementing one word on a 2-vCPU host
// then abort 10-12% of their attempts, against 4-7% with the old unwind
// and 3-5% at 300 ns.
const DefaultBackoffBase = 4 * tle.DefaultBackoffBase

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
type TLE struct {
	// seq is polled on every transactional load by every optimistic
	// reader, so it owns a cache line: a counter bump must not
	// invalidate the word the whole read side validates against.
	seq atomic.Uint64
	_   [56]byte

	// Cold, read-only after NewTLE; every section reads it.
	attempts int
	backoff  tle.Backoff
	_        [40]byte

	// shards[i] holds the counters of thread i-1 (0: the setup
	// context). A section reaches its shard through its Thread, so mu
	// is taken once per (thread, lock) pairing and by whoever reads the
	// counters — on a line the sections do not read.
	mu     sync.Mutex
	shards []*shard
	_      [32]byte
}

// counters is one thread's share of a lock's counters. Only its owner
// writes it — thread i of the Run in progress owns shard i+1 of every
// lock — so a bump is a load and a store of a line no other thread
// writes, not a read-modify-write of one every thread does; the fields
// are atomic for the readers (Stats, NATLE.decide), which may run at
// any time.
//
// A section is counted once, when it commits or takes the fallback
// lock, and an attempt when it commits or aborts: sections and attempts
// started are those sums (addTo), not words of their own, which leaves
// a first-try commit one counter to write.
type counters struct {
	commits       atomic.Uint64 // optimistic attempts that validated
	aborts        atomic.Uint64 // validation/upgrade failures
	lockHeldWaits atomic.Uint64 // attempts deferred on an odd sequence
	fallbacks     atomic.Uint64 // sections that took the fallback lock
	starvations   atomic.Uint64 // watchdog-forced fallbacks
	group         atomic.Uint32 // the owner's thread group (NATLE's profile)
}

// shard gives counters a cache line of its own.
type shard struct {
	counters
	_ [16]byte
}

// inc is the owner's bump of one of its shard's counters.
func inc(n *atomic.Uint64) { n.Store(n.Load() + 1) }

// addTo adds the counters to t, in the shared tle.Stats shape:
// validation failures count as conflict aborts (index htm.Conflict),
// which is what they are — another thread's write interfered.
func (s *counters) addTo(t *tle.Stats) {
	commits, aborts, fallbacks := s.commits.Load(), s.aborts.Load(), s.fallbacks.Load()
	t.Ops += commits + fallbacks
	t.Attempts += commits + aborts
	t.Commits += commits
	t.Aborts[1] += aborts
	t.Fallbacks += fallbacks
	t.LockHeldWaits += s.lockHeldWaits.Load()
	t.Starvations += s.starvations.Load()
}

// NewTLE builds a native-tle lock. attempts <= 0 selects
// DefaultAttempts; a zero backoff base selects DefaultBackoffBase, and a
// zero cap the repo-wide tle.DefaultBackoffCap.
func NewTLE(attempts int, backoff tle.Backoff) *TLE {
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	if backoff.Base <= 0 {
		backoff.Base = DefaultBackoffBase
	}
	return &TLE{attempts: attempts, backoff: backoff}
}

// Name implements scheme.BackendInstance.
func (t *TLE) Name() string { return "native-tle" }

// Stats implements scheme.BackendInstance.
func (t *TLE) Stats() scheme.Stats { return scheme.Stats{TLE: t.tleStats()} }

// tleStats sums the shards. Each counter only grows and is read once,
// so successive sums are monotone under any interleaving with the
// owners.
func (t *TLE) tleStats() tle.Stats {
	var sum tle.Stats
	for _, sh := range t.all() {
		sh.addTo(&sum)
	}
	return sum
}

// all returns the shards claimed so far; the shards themselves never
// move.
func (t *TLE) all() []*shard {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shards
}

// shard returns c's counters on this lock.
func (t *TLE) shard(c *Thread) *shard {
	if c.lock != t {
		t.claim(c)
	}
	return c.shard
}

// claim points c at its shard of this lock, growing the list to reach
// it: a lock is built before the Run that uses it and may outlive that
// Run, so it cannot know its thread count.
func (t *TLE) claim(c *Thread) {
	t.mu.Lock()
	for len(t.shards) <= c.thread+1 {
		t.shards = append(t.shards, &shard{})
	}
	sh := t.shards[c.thread+1]
	t.mu.Unlock()
	sh.group.Store(uint32(c.group))
	c.lock, c.shard = t, sh
}

// Critical implements scheme.BackendInstance: optimistic attempts with capped
// full-jitter backoff, then the exclusive fallback.
func (t *TLE) Critical(bc backend.Ctx, body func()) {
	c := bc.(*Thread)
	if c.tx.active {
		// Flat nesting: the enclosing optimistic section is the
		// atomicity domain (the workloads never nest, but a body that
		// does must not corrupt the thread's single txn slot).
		body()
		return
	}
	t.critical(c, t.shard(c), body)
}

// critical is Critical for a thread that is not inside a section, with
// its shard looked up.
func (t *TLE) critical(c *Thread, sh *shard, body func()) {
	waits := 0
	for attempt := 0; attempt < t.attempts; {
		s := t.seq.Load()
		if s&1 == 1 {
			// A writer holds the sequence lock. Defer without burning
			// an attempt (anti-lemming), bounded by the watchdog.
			inc(&sh.lockHeldWaits)
			waits++
			if waits > maxLockHeldWaits {
				inc(&sh.starvations)
				break
			}
			c.gap(attempt, t.backoff)
			continue
		}
		if t.try(c, s, body) {
			inc(&sh.commits)
			return
		}
		inc(&sh.aborts)
		attempt++
		c.gap(attempt, t.backoff)
	}
	inc(&sh.fallbacks)
	t.fallback(c, body)
}

// Exclusive implements scheme.BackendInstance: the sequence word held
// as a writer from the start, so no optimistic section validates across
// it.
func (t *TLE) Exclusive(bc backend.Ctx, body func()) {
	c := bc.(*Thread)
	inc(&t.shard(c).fallbacks)
	t.fallback(c, body)
}

// fallback acquires the sequence word exclusively and runs body
// pessimistically. It is its own function so the release can be
// deferred — a panicking body must not leave the sequence odd and
// wedge every later section — without Critical's optimistic return
// paying for a defer frame.
func (t *TLE) fallback(c *Thread, body func()) {
	s := t.lockAcquire(c)
	defer t.seq.Store(s + 2)
	if inj := c.w.inj; inj != nil {
		inj.csStall(c)
	}
	body()
}

// try runs one optimistic attempt against sequence snapshot start and
// reports whether it committed. A validation or upgrade failure in
// Thread.Load/Store kills the attempt; its body runs on to its end on
// zeros (see txn), and try then reads the one flag. It is the seqlock
// read section: blocking on any lock between the snapshot and the
// validation would deadlock against a writer waiting for readers to
// drain.
func (t *TLE) try(c *Thread, start uint64, body func()) bool {
	c.tx = txn{active: true, start: start, seq: &t.seq}
	if inj := c.w.inj; inj != nil {
		c.tx.spurious, c.tx.budget = inj.txStart(c)
	}
	defer t.unwind(c, start)
	body()
	c.tx.active = false
	switch {
	case c.tx.dead:
		return false
	case c.tx.writer:
		// Writer commit: release the sequence lock, advancing past
		// every snapshot taken before our upgrade. An injected commit
		// delay stretches the held window first (concurrent readers
		// keep failing validation), the native face of a delayed
		// cross-socket invalidation.
		if inj := c.w.inj; inj != nil {
			inj.commitDelay(c)
		}
		t.seq.Store(start + 2)
		return true
	default:
		// Read-only commit: every load validated individually and the
		// sequence never returns to an old value, so one final check
		// covers the full read window.
		return t.seq.Load() == start
	}
}

// unwind is try's deferred cleanup. It finds the attempt still active
// only if the body panicked (a workload bug): the panic propagates, but
// not while leaving the thread inside the attempt or, for an upgraded
// writer, every other thread wedged on an odd sequence.
func (t *TLE) unwind(c *Thread, start uint64) {
	if !c.tx.active {
		return
	}
	c.tx.active = false
	if c.tx.writer {
		t.seq.Store(start + 2)
	}
}

// lockAcquire spins until it owns the sequence word (even -> odd) and
// returns the even value it acquired from.
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
// preserving the bounds and the jitter shape.
func (c *Thread) gap(attempt int, b tle.Backoff) {
	c.spinWait(int64(b.Gap(c, attempt)) / int64(vtime.Nanosecond))
}
