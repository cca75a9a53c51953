package spinlock

import (
	"testing"

	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/sim"
	"natle/internal/vtime"
)

func TestMutualExclusion(t *testing.T) {
	const threads, iters = 8, 100
	e := sim.New(machine.LargeX52(), machine.FillSocketFirst{}, threads, 1)
	s := htm.NewSystem(e, 1<<12)
	var l *Lock
	inCS := 0
	maxInCS := 0
	counter := 0
	e.Spawn(nil, func(c *sim.Ctx) {
		l = New(s, c, 0)
		for i := 0; i < threads; i++ {
			e.Spawn(c, func(w *sim.Ctx) {
				for j := 0; j < iters; j++ {
					l.Acquire(w)
					inCS++
					if inCS > maxInCS {
						maxInCS = inCS
					}
					// Cross a yield point while inside the CS.
					w.AdvanceIdle(100 * vtime.Nanosecond)
					w.Checkpoint()
					counter++
					inCS--
					l.Release(w)
				}
			})
		}
		c.WaitOthers(vtime.Microsecond)
	})
	e.Run()
	if maxInCS != 1 {
		t.Errorf("max threads in critical section = %d, want 1", maxInCS)
	}
	if counter != threads*iters {
		t.Errorf("counter = %d, want %d", counter, threads*iters)
	}
}

func TestLockSubscriptionAbortsElidingTx(t *testing.T) {
	// A transaction that read the lock word as free must abort when
	// another thread subsequently acquires the lock — the TLE
	// correctness condition.
	e := sim.New(machine.LargeX52(), machine.FillSocketFirst{}, 2, 3)
	s := htm.NewSystem(e, 1<<12)
	var l *Lock
	var outcome htm.Outcome
	setup := make(chan struct{})
	_ = setup
	e.Spawn(nil, func(c *sim.Ctx) {
		l = New(s, c, 0)
		data := s.Alloc(c, 1)
		e.Spawn(c, func(w *sim.Ctx) { // eliding transaction
			outcome = s.Try(w, func() {
				if l.Held(w) {
					s.Abort(w, htm.CodeLockHeld)
					return
				}
				for i := 0; i < 2000; i++ { // stay in flight ~200us
					w.AdvanceIdle(100 * vtime.Nanosecond)
					w.Checkpoint()
				}
				_ = s.Read(w, data)
			})
		})
		e.Spawn(c, func(w *sim.Ctx) { // lock acquirer
			w.AdvanceIdle(10 * vtime.Microsecond)
			w.Checkpoint()
			l.Acquire(w)
			w.AdvanceIdle(vtime.Microsecond)
			l.Release(w)
		})
		c.WaitOthers(vtime.Microsecond)
	})
	e.Run()
	if outcome.Committed {
		t.Fatal("eliding transaction survived a lock acquisition")
	}
	if outcome.Code != htm.CodeConflict {
		t.Fatalf("abort code = %v, want conflict (lock-word invalidation)", outcome.Code)
	}
}

func TestTryAcquire(t *testing.T) {
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 1, 5)
	s := htm.NewSystem(e, 1<<10)
	e.Spawn(nil, func(c *sim.Ctx) {
		l := New(s, c, 0)
		if !l.TryAcquire(c) {
			t.Error("TryAcquire failed on a free lock")
		}
		if l.TryAcquire(c) {
			t.Error("TryAcquire succeeded on a held lock")
		}
		l.Release(c)
		if !l.TryAcquire(c) {
			t.Error("TryAcquire failed after release")
		}
	})
	e.Run()
}
