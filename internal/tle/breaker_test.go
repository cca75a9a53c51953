package tle_test

import (
	"testing"

	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/sim"
	"natle/internal/telemetry"
	"natle/internal/tle"
	"natle/internal/vtime"
)

// flipInjector aborts every transaction on its first access while on,
// and injects nothing while off — the minimal hand-driven fault source
// for the degradation tests.
type flipInjector struct{ on bool }

func (f *flipInjector) TxStart(*sim.Ctx) int { // 1 = abort at first access
	if f.on {
		return 1
	}
	return 0
}
func (f *flipInjector) AbortHint(_ *sim.Ctx, _ telemetry.Code, hint bool) bool { return hint }
func (f *flipInjector) Caps(_ *sim.Ctx, w, r int) (int, int)                   { return w, r }
func (f *flipInjector) InvalDelay(vtime.Time, bool) vtime.Duration             { return 0 }
func (f *flipInjector) CSStall(*sim.Ctx) vtime.Duration                        { return 0 }

// TestBreakerTripsAndRecovers drives the full circuit-breaker cycle:
// under 100% injected aborts every critical section must still
// complete (via the fallback lock) within its bounded attempt budget,
// the breaker must trip and start skipping HTM entirely, and once the
// abort storm stops a recovery probe must close it and restore
// elision.
func TestBreakerTripsAndRecovers(t *testing.T) {
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 1, 1)
	sys := htm.NewSystem(e, 1<<18)
	inj := &flipInjector{on: true}
	sys.SetInjector(inj)

	e.Spawn(nil, func(c *sim.Ctx) {
		br := tle.BreakerConfig{
			Window:        16,
			TripRate:      0.9,
			ProbeAfter:    5 * vtime.Microsecond,
			ProbeAttempts: 2,
		}
		pol := tle.Policy{Attempts: 5, Breaker: &br}
		l := tle.New(sys, c, 0, pol)
		if got := l.Name(); got != "TLE-5-breaker" {
			t.Errorf("policy name %q, want TLE-5-breaker", got)
		}
		addr := sys.Alloc(c, 8)
		body := func(w *sim.Ctx) func() {
			return func() { sys.Write(w, addr, sys.Read(w, addr)+1) }
		}

		const stormOps = 40
		for i := 0; i < stormOps; i++ {
			l.Critical(c, body(c))
		}
		s := l.Stats
		// Progress under total HTM failure: every op completed, all via
		// the lock, each within the bounded attempt budget.
		if s.Ops != stormOps || s.Fallbacks != stormOps {
			t.Errorf("under 100%% aborts: ops=%d fallbacks=%d, want both %d",
				s.Ops, s.Fallbacks, stormOps)
		}
		if s.Attempts > stormOps*uint64(pol.Attempts) {
			t.Errorf("attempt bound violated: %d attempts for %d ops (max %d each)",
				s.Attempts, stormOps, pol.Attempts)
		}
		if s.BreakerTrips == 0 {
			t.Error("breaker never tripped under a 100% abort rate")
		}
		if s.BreakerSkips == 0 {
			t.Error("open breaker never skipped HTM")
		}
		if !l.BreakerOpen() {
			t.Error("breaker closed while the abort storm is still running")
		}
		// Once open, attempts stop: skipped sections burn zero attempts.
		if s.Attempts >= stormOps*uint64(pol.Attempts) {
			t.Errorf("breaker saved no attempts: %d", s.Attempts)
		}

		// Storm over: after the probe interval the next critical section
		// probes, commits, and closes the breaker.
		inj.on = false
		c.AdvanceIdle(br.ProbeAfter + vtime.Microsecond)
		c.Yield()
		for i := 0; i < 20; i++ {
			l.Critical(c, body(c))
		}
		s = l.Stats
		if s.BreakerProbes == 0 {
			t.Error("breaker never probed after the open interval")
		}
		if s.BreakerRecoveries == 0 {
			t.Error("breaker never recovered after the abort storm stopped")
		}
		if l.BreakerOpen() {
			t.Error("breaker still open after successful probe")
		}
		if s.Commits == 0 {
			t.Error("no commits after recovery; elision was not restored")
		}
		// The counter body ran exactly once per op regardless of path.
		if got := sys.Mem.Raw(addr); got != stormOps+20 {
			t.Errorf("critical-section body ran %d times, want %d", got, stormOps+20)
		}
	})
	e.Run()
}

// TestBreakerEmitsTelemetry checks the open/close transitions land in
// the recorder (counters and trace events).
func TestBreakerEmitsTelemetry(t *testing.T) {
	rec := telemetry.NewCollector(telemetry.Config{TraceCap: 1 << 12})
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 1, 1)
	sys := htm.NewSystem(e, 1<<18)
	sys.SetRecorder(rec)
	inj := &flipInjector{on: true}
	sys.SetInjector(inj)

	e.Spawn(nil, func(c *sim.Ctx) {
		br := tle.BreakerConfig{Window: 8, TripRate: 0.9, ProbeAfter: 2 * vtime.Microsecond}
		l := tle.New(sys, c, 0, tle.Policy{Attempts: 4, Breaker: &br})
		addr := sys.Alloc(c, 8)
		for i := 0; i < 10; i++ {
			l.Critical(c, func() { sys.Write(c, addr, 1) })
		}
		inj.on = false
		c.AdvanceIdle(br.ProbeAfter + vtime.Microsecond)
		c.Yield()
		for i := 0; i < 5; i++ {
			l.Critical(c, func() { sys.Write(c, addr, 1) })
		}
	})
	e.Run()

	if rec.Count(telemetry.KindBreakerOpen) == 0 {
		t.Error("no breaker-open events recorded")
	}
	if rec.Count(telemetry.KindBreakerClose) == 0 {
		t.Error("no breaker-close events recorded")
	}
	sum := rec.Summary()
	if sum.BreakerOpens == 0 || sum.BreakerCloses == 0 {
		t.Errorf("summary missing breaker counts: opens=%d closes=%d",
			sum.BreakerOpens, sum.BreakerCloses)
	}
	var open, close bool
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case telemetry.KindBreakerOpen:
			open = true
		case telemetry.KindBreakerClose:
			close = true
		}
	}
	if !open || !close {
		t.Errorf("trace missing breaker events: open=%v close=%v", open, close)
	}
}

// TestWatchdogBoundsLockHeldLivelock: with CountLockHeld=false, a
// critical section whose transactional attempts keep aborting with the
// lock-held code never consumes its attempt budget — before the
// watchdog this was an unbounded livelock. The watchdog must bound the
// uncounted deferrals and force the fallback.
func TestWatchdogBoundsLockHeldLivelock(t *testing.T) {
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 1, 1)
	sys := htm.NewSystem(e, 1<<18)
	e.Spawn(nil, func(c *sim.Ctx) {
		l := tle.New(sys, c, 0, tle.Policy{Attempts: 20, MaxWaits: 8})
		ran := 0
		l.Critical(c, func() {
			if sys.InTx(c) {
				// Every transactional attempt reports the lock held; only
				// the fallback path ever completes the body.
				sys.Abort(c, htm.CodeLockHeld)
				return
			}
			ran++
		})
		s := l.Stats
		if ran != 1 {
			t.Errorf("body ran %d times, want 1", ran)
		}
		if s.Starvations != 1 {
			t.Errorf("starvations=%d, want 1", s.Starvations)
		}
		if s.Fallbacks != 1 {
			t.Errorf("fallbacks=%d, want 1", s.Fallbacks)
		}
		// The deferral count is bounded by MaxWaits (+1 for the attempt
		// that crossed the bound).
		if s.Aborts[htm.CodeLockHeld] > 9 {
			t.Errorf("%d uncounted lock-held aborts; watchdog bound is 8", s.Aborts[htm.CodeLockHeld])
		}
	})
	e.Run()
}

// TestWatchdogDisabled: negative MaxWaits restores the legacy
// unbounded behaviour for CountLockHeld policies that rely on it; here
// the attempt budget still bounds the counted path.
func TestWatchdogDisabledCountsAttempts(t *testing.T) {
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 1, 1)
	sys := htm.NewSystem(e, 1<<18)
	e.Spawn(nil, func(c *sim.Ctx) {
		l := tle.New(sys, c, 0, tle.Policy{Attempts: 6, MaxWaits: -1, CountLockHeld: true})
		ran := 0
		l.Critical(c, func() {
			if sys.InTx(c) {
				sys.Abort(c, htm.CodeLockHeld)
				return
			}
			ran++
		})
		s := l.Stats
		if ran != 1 || s.Fallbacks != 1 {
			t.Errorf("ran=%d fallbacks=%d, want 1/1", ran, s.Fallbacks)
		}
		if s.Starvations != 0 {
			t.Errorf("starvations=%d, want 0 (counted attempts, no watchdog)", s.Starvations)
		}
		if s.Attempts != 6 {
			t.Errorf("attempts=%d, want the full budget 6", s.Attempts)
		}
	})
	e.Run()
}
