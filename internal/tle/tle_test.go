package tle

import (
	"testing"

	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/mem"
	"natle/internal/sim"
	"natle/internal/vtime"
)

func TestPolicyNames(t *testing.T) {
	cases := []struct {
		pol  Policy
		want string
	}{
		{Policy{Attempts: 20}, "TLE-20"},
		{Policy{Attempts: 5, HonorHint: true}, "TLE-5-hint-bit"},
		{Policy{Attempts: 20, CountLockHeld: true}, "TLE-20-count-lock"},
	}
	for _, c := range cases {
		if got := c.pol.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

// runCounter runs a contended counter under a TLE lock and returns the
// lock for stats inspection.
func runCounter(t *testing.T, pol Policy, threads, iters int) *Lock {
	t.Helper()
	e := sim.New(machine.LargeX52(), machine.FillSocketFirst{}, threads, 7)
	s := htm.NewSystem(e, 1<<12)
	var l *Lock
	total := 0
	e.Spawn(nil, func(c *sim.Ctx) {
		l = New(s, c, 0, pol)
		ctr := s.Alloc(c, 1)
		for i := 0; i < threads; i++ {
			e.Spawn(c, func(w *sim.Ctx) {
				for j := 0; j < iters; j++ {
					l.Critical(w, func() {
						s.Write(w, ctr, s.Read(w, ctr)+1)
					})
				}
			})
		}
		c.WaitOthers(vtime.Microsecond)
		if got := s.Mem.Raw(ctr); got != uint64(threads*iters) {
			t.Errorf("counter = %d, want %d", got, threads*iters)
		}
		total = int(s.Mem.Raw(ctr))
	})
	e.Run()
	_ = total
	return l
}

func TestCriticalSectionAtomicity(t *testing.T) {
	l := runCounter(t, TLE20(), 12, 200)
	if l.Stats.Ops != 12*200 {
		t.Errorf("ops = %d, want %d", l.Stats.Ops, 12*200)
	}
	if l.Stats.Commits+l.Stats.Fallbacks != l.Stats.Ops {
		t.Errorf("commits(%d) + fallbacks(%d) != ops(%d)",
			l.Stats.Commits, l.Stats.Fallbacks, l.Stats.Ops)
	}
}

func TestFallbackProgressUnderMaxContention(t *testing.T) {
	// A single hot counter forces constant conflicts; the lock
	// fallback must still guarantee progress and exact counts.
	runCounter(t, Policy{Attempts: 3}, 24, 100)
}

func TestHonorHintFallsBackOnCapacity(t *testing.T) {
	// A transaction that always overflows the write capacity must fall
	// back after a single attempt under the hint-honoring policy, and
	// after Attempts tries otherwise.
	p := machine.LargeX52()
	run := func(pol Policy) *Lock {
		e := sim.New(p, machine.FillSocketFirst{}, 1, 9)
		s := htm.NewSystem(e, 1<<22)
		var l *Lock
		e.Spawn(nil, func(c *sim.Ctx) {
			l = New(s, c, 0, pol)
			big := s.Alloc(c, (p.TxWriteCap+8)*8)
			l.Critical(c, func() {
				for i := 0; i <= p.TxWriteCap+1; i++ {
					s.Write(c, big+mem.Addr(i*8), 1)
				}
			})
		})
		e.Run()
		return l
	}
	hint := run(Policy{Attempts: 20, HonorHint: true})
	if hint.Stats.Attempts != 1 {
		t.Errorf("hint policy attempts = %d, want 1", hint.Stats.Attempts)
	}
	if hint.Stats.Fallbacks != 1 {
		t.Errorf("hint policy fallbacks = %d, want 1", hint.Stats.Fallbacks)
	}
	plain := run(Policy{Attempts: 20})
	if plain.Stats.Attempts != 20 {
		t.Errorf("plain policy attempts = %d, want 20", plain.Stats.Attempts)
	}
	if plain.Stats.Aborts[htm.CodeCapacity] != 20 {
		t.Errorf("capacity aborts = %d, want 20", plain.Stats.Aborts[htm.CodeCapacity])
	}
}

func TestAntiLemmingDoesNotCountLockHeld(t *testing.T) {
	// While one thread holds the lock for a long time, a TLE thread
	// without CountLockHeld must not burn attempts; with CountLockHeld
	// it must exhaust them and acquire the lock (lemming behaviour).
	run := func(pol Policy) *Lock {
		e := sim.New(machine.LargeX52(), machine.FillSocketFirst{}, 2, 11)
		s := htm.NewSystem(e, 1<<12)
		var l *Lock
		e.Spawn(nil, func(c *sim.Ctx) {
			l = New(s, c, 0, pol)
			ctr := s.Alloc(c, 1)
			holderDone := false
			e.Spawn(c, func(w *sim.Ctx) { // long lock holder
				l.Inner().Acquire(w)
				w.AdvanceIdle(100 * vtime.Microsecond)
				w.Checkpoint()
				l.Inner().Release(w)
				holderDone = true
			})
			e.Spawn(c, func(w *sim.Ctx) { // elider
				w.AdvanceIdle(2 * vtime.Microsecond) // let the holder take it
				w.Checkpoint()
				l.Critical(w, func() {
					s.Write(w, ctr, s.Read(w, ctr)+1)
				})
				if !pol.CountLockHeld && !holderDone {
					t.Error("anti-lemming elider ran before the lock was released")
				}
			})
			c.WaitOthers(vtime.Microsecond)
		})
		e.Run()
		return l
	}
	anti := run(Policy{Attempts: 5})
	if anti.Stats.Fallbacks != 0 {
		t.Errorf("anti-lemming fallbacks = %d, want 0", anti.Stats.Fallbacks)
	}
	lemming := run(Policy{Attempts: 5, CountLockHeld: true})
	if lemming.Stats.Fallbacks != 1 {
		t.Errorf("count-lock fallbacks = %d, want 1 (lemming)", lemming.Stats.Fallbacks)
	}
}

func TestCommitsAfterNoHintCounting(t *testing.T) {
	// Force one transient capacity failure, then a success; the
	// CommitsAfterNoHint counter (Fig 2b's numerator) must record it.
	e := sim.New(machine.LargeX52(), machine.FillSocketFirst{}, 1, 13)
	s := htm.NewSystem(e, 1<<12)
	e.Spawn(nil, func(c *sim.Ctx) {
		l := New(s, c, 0, TLE20())
		ctr := s.Alloc(c, 1)
		first := true
		l.Critical(c, func() {
			if first {
				first = false
				s.Abort(c, htm.CodeCapacity)
				return
			}
			s.Write(c, ctr, 1)
		})
		if l.Stats.CommitsAfterNoHint != 1 {
			t.Errorf("CommitsAfterNoHint = %d, want 1", l.Stats.CommitsAfterNoHint)
		}
	})
	e.Run()
}
