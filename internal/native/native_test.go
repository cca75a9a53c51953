package native

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"natle/internal/backend"
	"natle/internal/fault"
	"natle/internal/scheme"
	"natle/internal/tle"
)

// runCounter increments a shared word ops times per thread under cs
// and returns the final value. Every fourth increment takes cs
// pessimistically, so a lost update between an Exclusive section and an
// optimistic or fallback one shows in the count as well.
func runCounter(w *World, cs scheme.BackendInstance, threads, ops int) uint64 {
	var addr int
	w.Run(threads, func(c backend.Ctx) {
		addr = c.Alloc(1)
	}, func(c backend.Ctx) {
		incr := func() { c.Store(addr, c.Load(addr)+1) }
		for j := 0; j < ops; j++ {
			if j%4 == 3 {
				cs.Exclusive(c, incr)
			} else {
				cs.Critical(c, incr)
			}
		}
	})
	return w.Peek(addr)
}

func TestSocketStriping(t *testing.T) {
	w := NewWorld(Config{Sockets: 2})
	got := make([]int, 4)
	w.Run(4, func(c backend.Ctx) {
		if c.Thread() != -1 || c.Socket() != 0 {
			t.Errorf("setup ctx: thread %d socket %d, want -1, 0", c.Thread(), c.Socket())
		}
	}, func(c backend.Ctx) {
		got[c.Thread()] = c.Socket()
	})
	want := []int{0, 0, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("socket striping %v, want %v", got, want)
		}
	}
}

func TestAllocOverflowPanics(t *testing.T) {
	w := NewWorld(Config{Words: 8})
	defer func() {
		if recover() == nil {
			t.Fatalf("alloc past capacity did not panic")
		}
	}()
	w.Run(0, func(c backend.Ctx) { c.Alloc(9) }, nil)
}

// TestWordsAcrossChunks: the word array is a list of chunks; an
// allocation that straddles two of them is one run of addresses, every
// word is its own, and the array ends where Config.Words says, not where
// the last chunk would.
func TestWordsAcrossChunks(t *testing.T) {
	const words = 2*chunkWords + 5
	w := NewWorld(Config{Words: words})
	w.Run(0, func(c backend.Ctx) {
		c.Alloc(chunkWords - 2)
		a := c.Alloc(chunkWords + 7) // the rest: chunk 0's last two words to the end
		for i := 0; i < chunkWords+7; i++ {
			c.Store(a+i, uint64(a+i))
		}
		for i := 0; i < chunkWords+7; i++ {
			if got := c.Load(a + i); got != uint64(a+i) {
				t.Fatalf("word %d reads %d", a+i, got)
			}
		}
	}, nil)
	if got := w.Peek(words - 1); got != words-1 {
		t.Fatalf("last word reads %d, want %d", got, words-1)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("a read past the last word did not panic")
		}
	}()
	w.Peek(words)
}

// TestTLEValidationAbort injects one deterministic conflict: the body
// advances the sequence word between two loads (as a concurrent
// writer's commit would), which must abort exactly the first
// optimistic attempt and succeed on the second.
func TestTLEValidationAbort(t *testing.T) {
	w := NewWorld(Config{})
	lk := NewTLE(0, tle.Backoff{})
	poisoned := false
	w.Run(1, func(c backend.Ctx) { c.Alloc(2) }, func(c backend.Ctx) {
		lk.Critical(c, func() {
			c.Load(0)
			if !poisoned {
				poisoned = true
				lk.seq.Add(2) // a foreign writer's commit
			}
			c.Load(1)
		})
	})
	st := lk.Stats().TLE
	if st.Ops != 1 || st.Commits != 1 || st.TotalAborts() != 1 || st.Fallbacks != 0 {
		t.Fatalf("ops=%d commits=%d aborts=%d fallbacks=%d, want 1/1/1/0",
			st.Ops, st.Commits, st.TotalAborts(), st.Fallbacks)
	}
}

// TestTLEFallbackOnPersistentConflict poisons every optimistic
// attempt, exhausting the budget; the section must complete on the
// exclusive fallback (where the poison is harmless: no validation).
func TestTLEFallbackOnPersistentConflict(t *testing.T) {
	w := NewWorld(Config{})
	lk := NewTLE(3, tle.Backoff{})
	var addr int
	w.Run(1, func(c backend.Ctx) { addr = c.Alloc(1) }, func(c backend.Ctx) {
		nc := c.(*Thread)
		lk.Critical(c, func() {
			c.Load(addr)
			if nc.tx.active {
				lk.seq.Add(2)
			}
			c.Store(addr, c.Load(addr)+1)
		})
	})
	if got := w.Peek(addr); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
	st := lk.Stats().TLE
	if st.Fallbacks != 1 || st.TotalAborts() != 3 || st.Commits != 0 {
		t.Fatalf("fallbacks=%d aborts=%d commits=%d, want 1/3/0", st.Fallbacks, st.TotalAborts(), st.Commits)
	}
	if st.Ops != st.Commits+st.Fallbacks {
		t.Fatalf("conservation broken: ops=%d commits+fallbacks=%d", st.Ops, st.Commits+st.Fallbacks)
	}
}

// TestTLEWriterUpgradeExcludes: a committed writer's sequence bump
// must be visible as two increments (lock, unlock), keeping the word
// even and growing.
func TestTLEWriterUpgrade(t *testing.T) {
	w := NewWorld(Config{})
	lk := NewTLE(0, tle.Backoff{})
	var addr int
	w.Run(1, func(c backend.Ctx) { addr = c.Alloc(1) }, func(c backend.Ctx) {
		lk.Critical(c, func() { c.Store(addr, 7) })
	})
	if got := lk.seq.Load(); got != 2 {
		t.Fatalf("sequence after one write commit = %d, want 2", got)
	}
	if got := w.Peek(addr); got != 7 {
		t.Fatalf("word = %d, want 7", got)
	}
}

// TestTLEBodyPanicReleasesLock: a non-abort panic from an upgraded
// writer must release the sequence lock before propagating, or every
// later section wedges.
func TestTLEBodyPanicReleasesLock(t *testing.T) {
	w := NewWorld(Config{})
	lk := NewTLE(0, tle.Backoff{})
	var addr int
	w.Run(1, func(c backend.Ctx) { addr = c.Alloc(1) }, func(c backend.Ctx) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workload panic swallowed")
				}
			}()
			lk.Critical(c, func() {
				c.Store(addr, 1)
				panic("workload bug")
			})
		}()
		// The lock must still be usable.
		lk.Critical(c, func() { c.Store(addr, c.Load(addr)+1) })
	})
	if got := lk.seq.Load(); got%2 != 0 {
		t.Fatalf("sequence left odd (%d) after panic", got)
	}
	if got := w.Peek(addr); got != 2 {
		t.Fatalf("word = %d, want 2", got)
	}
}

// TestFallbackBodyPanicReleasesLock: a body that panics on the
// pessimistic path of any native scheme must release the lock before
// the panic propagates. The eliding schemes are forced there by
// failing their one optimistic attempt (a foreign commit bumps the
// sequence between snapshot and load, and the dead attempt's body
// returns); a second section on another goroutine must then complete
// within a bounded wait. The eliding schemes also run a body that
// panics in an optimistic attempt upgraded to writer by its first
// store: that attempt holds the sequence odd, and must leave it even.
func TestFallbackBodyPanicReleasesLock(t *testing.T) {
	lk := NewTLE(1, tle.Backoff{})
	inner := NewTLE(1, tle.Backoff{})
	cases := []struct {
		cs  scheme.BackendInstance
		seq *atomic.Uint64 // elided sequence word, nil for plain locks
	}{
		{NewMutex(), nil},
		{NewSpin(), nil},
		{lk, &lk.seq},
		{NewNATLE(inner, 2, NATLEConfig{}), &inner.seq},
	}
	for _, tc := range cases {
		for _, writer := range []bool{false, true} {
			if writer && tc.seq == nil {
				continue
			}
			name := tc.cs.Name()
			if writer {
				name += "/upgraded-writer"
			}
			t.Run(name, func(t *testing.T) {
				w := NewWorld(Config{Sockets: 2})
				var addr int
				w.Run(1, func(c backend.Ctx) { addr = c.Alloc(1) }, func(c backend.Ctx) {
					defer func() {
						if recover() == nil {
							t.Errorf("workload panic swallowed")
						}
					}()
					nc := c.(*Thread)
					tc.cs.Critical(c, func() {
						if writer {
							c.Store(addr, 1) // upgrades the optimistic attempt
							if !nc.tx.writer {
								t.Errorf("first store of an uncontended attempt did not upgrade it")
							}
						} else if nc.tx.active {
							tc.seq.Add(2)
							c.Load(addr) // fails validation: the attempt is dead
							return
						}
						panic("workload bug")
					})
				})
				if tc.seq != nil {
					if got := tc.seq.Load(); got%2 != 0 {
						t.Fatalf("sequence left odd (%d) after the panic", got)
					}
				}
				returnsWithin(t, "a section after a panicking section", func() {
					w.Run(1, func(backend.Ctx) {}, func(c backend.Ctx) {
						tc.cs.Critical(c, func() { c.Store(addr, c.Load(addr)+1) })
					})
				})
				want := uint64(1)
				if writer {
					want = 2 // the upgraded writer's store was published
				}
				if got := w.Peek(addr); got != want {
					t.Fatalf("word = %d, want %d", got, want)
				}
			})
		}
	}
}

// watchdog bounds how long a section that must not block may take
// before the test calls it blocked: ample for a loaded race-detector
// run, yet short enough that a hang fails fast.
const watchdog = 2 * time.Second

// returnsWithin runs f on its own goroutine and fails the test unless
// it returns within the watchdog, so that a section that blocks for
// ever shows as a failure, not as a hung suite.
func returnsWithin(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(watchdog):
		t.Fatalf("%s did not return within %v", what, watchdog)
	}
}

// TestSeqlockReadSectionTakesNoLock: TLE.try is the seqlock read
// section. It must not block on any lock between its snapshot and its
// validation, or it would deadlock against a writer that holds the
// sequence and waits on that lock. With the lock's mutex held and its
// sequence odd, an optimistic attempt must still return, and must not
// commit.
func TestSeqlockReadSectionTakesNoLock(t *testing.T) {
	w := NewWorld(Config{})
	lk := NewTLE(0, tle.Backoff{})
	var addr int
	committed := false
	lk.mu.Lock()
	defer lk.mu.Unlock()
	lk.seq.Store(1)
	returnsWithin(t, "an optimistic attempt on a held lock", func() {
		w.Run(1, func(c backend.Ctx) { addr = c.Alloc(1) }, func(c backend.Ctx) {
			committed = lk.try(c.(*Thread), 0, func() { c.Load(addr) })
		})
	})
	if committed {
		t.Fatal("an optimistic attempt committed across an odd sequence")
	}
}

// TestLockAcquireBoundedUnderStall: under the stall fault schedule a
// fifth of the threads that take the sequence word spin 30µs while they
// hold it. Every thread waiting in TLE.lockAcquire must still get the
// word, and no update may be lost.
func TestLockAcquireBoundedUnderStall(t *testing.T) {
	sched, err := fault.LookupSchedule("stall")
	if err != nil {
		t.Fatal(err)
	}
	const threads, ops = 4, 250
	w := NewWorld(Config{Sockets: 2})
	w.ArmFaults(sched.Profile)
	lk := NewTLE(0, tle.Backoff{})
	var addr int
	returnsWithin(t, "fallback sections under the stall schedule", func() {
		w.Run(threads, func(c backend.Ctx) { addr = c.Alloc(1) }, func(c backend.Ctx) {
			for j := 0; j < ops; j++ {
				lk.Exclusive(c, func() { c.Store(addr, c.Load(addr)+1) })
			}
		})
	})
	if got := w.Peek(addr); got != threads*ops {
		t.Fatalf("counter = %d, want %d", got, threads*ops)
	}
	if w.FaultStats().Stalls == 0 {
		t.Fatal("the stall schedule injected no stall")
	}
}

// TestTLESoakContended is the short contended soak the CI race job
// runs: heavy true sharing across goroutines, where lost updates,
// torn validation, or a leaked sequence lock would show up as a wrong
// final count, a race report, or a hang.
func TestTLESoakContended(t *testing.T) {
	threads, ops := 8, 4000
	if testing.Short() {
		threads, ops = 4, 1000
	}
	w := NewWorld(Config{})
	lk := NewTLE(0, tle.Backoff{})
	if got, want := runCounter(w, lk, threads, ops), uint64(threads*ops); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	st := lk.Stats().TLE
	if st.Ops != uint64(threads*ops) {
		t.Fatalf("ops = %d, want %d", st.Ops, threads*ops)
	}
	if st.Commits+st.Fallbacks != st.Ops {
		t.Fatalf("conservation broken: ops=%d commits=%d fallbacks=%d", st.Ops, st.Commits, st.Fallbacks)
	}
}

// TestNATLESoakContended: same soak through the throttling layer, with
// a window small enough that real decisions fire. Progress (no
// deadlock between throttling and the op-count-bounded schedule) and
// conservation are the assertions; decision counts are host-dependent.
func TestNATLESoakContended(t *testing.T) {
	threads, ops := 8, 4000
	if testing.Short() {
		threads, ops = 4, 1000
	}
	w := NewWorld(Config{Sockets: 2})
	lk := NewNATLE(NewTLE(0, tle.Backoff{}), w.Sockets(), NATLEConfig{Window: 200_000, Wait: 5_000})
	if got, want := runCounter(w, lk, threads, ops), uint64(threads*ops); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	st := lk.Stats()
	if st.TLE.Commits+st.TLE.Fallbacks != st.TLE.Ops {
		t.Fatalf("conservation broken: ops=%d commits=%d fallbacks=%d",
			st.TLE.Ops, st.TLE.Commits, st.TLE.Fallbacks)
	}
	if int(st.Extra["natle_decisions"]) != len(st.Timeline) {
		t.Fatalf("decisions=%d but timeline has %d samples",
			st.Extra["natle_decisions"], len(st.Timeline))
	}
}

// TestMutexAndSpinConservation covers the two plain-lock baselines.
func TestMutexAndSpinConservation(t *testing.T) {
	w1 := NewWorld(Config{})
	m := NewMutex()
	if got := runCounter(w1, m, 4, 500); got != 2000 {
		t.Fatalf("mutex counter = %d, want 2000", got)
	}
	if got := m.Stats().Extra["acquires"]; got != 2000 {
		t.Fatalf("mutex acquires = %d, want 2000", got)
	}
	w2 := NewWorld(Config{})
	s := NewSpin()
	if got := runCounter(w2, s, 4, 500); got != 2000 {
		t.Fatalf("spin counter = %d, want 2000", got)
	}
	if got := s.Stats().Extra["acquires"]; got != 2000 {
		t.Fatalf("spin acquires = %d, want 2000", got)
	}
}

// TestShardedCountersLive: the per-thread counter shards, summed, obey
// the laws one shared block did, while they are being written. Eight
// threads increment under one lock (the counter workload's shape) or
// split over two locks of one scheme, a word each (twotrees': disjoint
// thread sets, so each lock has shards nobody claimed); a ninth
// goroutine sums the locks throughout and must see every counter
// monotone, and at the end every section is on the books exactly once.
func TestShardedCountersLive(t *testing.T) {
	const threads = 8
	ops := 6000
	if testing.Short() {
		ops = 1500
	}
	newTLE := func() *TLE { return NewTLE(0, tle.Backoff{}) }
	cases := []struct {
		name string
		new  func(w *World) scheme.BackendInstance
	}{
		{"native-tle", func(*World) scheme.BackendInstance { return newTLE() }},
		{"native-natle", func(w *World) scheme.BackendInstance {
			return NewNATLE(newTLE(), w.Sockets(), NATLEConfig{Window: 100_000, Wait: 5_000})
		}},
	}
	for _, tc := range cases {
		for _, shape := range []string{"counter", "twotrees"} {
			t.Run(tc.name+"/"+shape, func(t *testing.T) { testShardedCountersLive(t, threads, ops, shape, tc.new) })
		}
	}
}

func testShardedCountersLive(t *testing.T, threads, ops int, shape string, newLock func(*World) scheme.BackendInstance) {
	w := NewWorld(Config{Sockets: 2})
	locks := []scheme.BackendInstance{newLock(w)}
	if shape == "twotrees" {
		locks = append(locks, newLock(w))
	}

	stop := make(chan struct{})
	polled := make(chan int)
	go func() {
		last := make([]tle.Stats, len(locks))
		n := 0
		for {
			for i, lk := range locks {
				st := lk.Stats().TLE
				d := st.Sub(last[i])
				for _, v := range []uint64{d.Ops, d.Attempts, d.Commits, d.Aborts[1], d.Fallbacks, d.LockHeldWaits, d.Starvations} {
					if int64(v) < 0 {
						t.Errorf("lock %d went backwards: %v after %v", i, st, last[i])
					}
				}
				last[i] = st
			}
			n++
			select {
			case <-stop:
				polled <- n
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	var addr int
	w.Run(threads, func(c backend.Ctx) { addr = c.Alloc(len(locks)) }, func(c backend.Ctx) {
		which := c.Thread() % len(locks)
		lk, a := locks[which], addr+which
		incr := func() { c.Store(a, c.Load(a)+1) }
		for j := 0; j < ops; j++ {
			lk.Critical(c, incr)
		}
	})
	close(stop)
	if n := <-polled; n < 2 {
		t.Fatalf("the poller summed the shards %d times", n)
	}

	want := uint64(threads / len(locks) * ops)
	for i, lk := range locks {
		if got := w.Peek(addr + i); got != want {
			t.Errorf("lock %d: word = %d, want %d", i, got, want)
		}
		full := lk.Stats()
		st := full.TLE
		if st.Ops != want || st.Ops != st.Commits+st.Fallbacks || st.Attempts != st.Commits+st.Aborts[1] {
			t.Errorf("lock %d: %v, want ops = commits+fallbacks = %d and attempts = commits+aborts", i, st, want)
		}
		n, ok := lk.(*NATLE)
		if !ok {
			continue
		}
		if full.Extra["natle_decisions"] < 1 {
			t.Errorf("lock %d: no window closed in %d sections", i, st.Ops)
		}
		// The timeline holds the sections of every closed window by
		// group; closing the one still open by hand, it holds every
		// section exactly once.
		n.decide(n.cfg.Window)
		var acqs uint64
		for _, s := range n.Stats().Timeline {
			for _, a := range s.Acqs {
				acqs += a
			}
		}
		if acqs != st.Ops {
			t.Errorf("lock %d: the windows hold %d sections, the lock ran %d", i, acqs, st.Ops)
		}
	}
}

// TestShardsFollowTheRun: a lock does not know the thread count of the
// Run that uses it — it may be built in one Run and used in a later,
// wider one — so its shards grow to whatever thread index turns up, and
// each Run's threads re-register the group they are in now.
func TestShardsFollowTheRun(t *testing.T) {
	w := NewWorld(Config{Sockets: 2})
	lk := NewTLE(0, tle.Backoff{})
	if got := runCounter(w, lk, 2, 100) + runCounter(w, lk, 6, 100); got != 800 {
		t.Fatalf("counters = %d over the two runs, want 800", got)
	}
	if st := lk.Stats().TLE; st.Ops != 800 {
		t.Fatalf("%v, want 800 sections", st)
	}
	shards := lk.all()
	if len(shards) != 7 {
		t.Fatalf("%d shards after a 6-thread run, want 7 (setup context + 6)", len(shards))
	}
	// Thread 1 was in group 1 of the 2-thread run and is in group 0 of
	// the 6-thread one.
	for i, want := range []uint32{0, 0, 0, 0, 1, 1, 1} {
		if got := shards[i].group.Load(); got != want {
			t.Errorf("shard %d: group %d, want %d", i, got, want)
		}
	}
}

// TestSleepUntilNeverReturnsEarly: SleepUntil returns with Now() at or
// past its deadline, however coarse the kernel's timer, and returns at
// once for a deadline already passed — the most negative one included,
// where a gap computed before the comparison would overflow into a
// sleep of centuries. How late it returns is not asserted: timing
// claims belong to the benchmarks.
func TestSleepUntilNeverReturnsEarly(t *testing.T) {
	NewWorld(Config{}).Run(1, func(backend.Ctx) {}, func(bc backend.Ctx) {
		c := bc.(*Thread)
		for _, gap := range []int64{1, 1_000, 20_000, 200_000} {
			d := c.Now() + gap
			c.SleepUntil(d)
			if now := c.Now(); now < d {
				t.Errorf("SleepUntil(now+%dns) returned %dns early", gap, d-now)
			}
		}
		for _, d := range []int64{math.MinInt64, 0, c.Now()} {
			c.SleepUntil(d)
			if now := c.Now(); now < d {
				t.Errorf("SleepUntil(%d) returned at %d", d, now)
			}
		}
	})
}
