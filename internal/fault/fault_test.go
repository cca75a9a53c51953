package fault_test

import (
	"bytes"
	"strings"
	"testing"

	"natle/internal/fault"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/sets"
	"natle/internal/sim"
	"natle/internal/telemetry"
	"natle/internal/tle"
	"natle/internal/vtime"
)

// trial runs a fixed four-worker insert/delete schedule over a shared
// AVL tree under TLE, with the given injector installed (nil = none),
// and returns the final contents, the machine's HTM counters, and the
// full Chrome-trace export of every telemetry event.
func trial(t *testing.T, inj fault.Injector) ([]int64, htm.Stats, []byte) {
	t.Helper()
	rec := telemetry.NewCollector(telemetry.Config{TraceCap: 1 << 15})
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 4, 1)
	sys := htm.NewSystem(e, 1<<20)
	sys.SetRecorder(rec)
	if inj != nil {
		sys.SetInjector(inj)
	}
	var keys []int64
	e.Spawn(nil, func(c *sim.Ctx) {
		// New fails only on an unknown kind.
		set, _ := sets.New(sets.KindAVL, sys, c)
		l := tle.New(sys, c, 0, tle.TLE20())
		for i := 0; i < 4; i++ {
			tid := i
			e.Spawn(c, func(w *sim.Ctx) {
				for j := 0; j < 120; j++ {
					key := int64((tid*131 + j*17) % 96)
					if (tid+j)%3 == 0 {
						l.Critical(w, func() { set.Delete(w, key) })
					} else {
						l.Critical(w, func() { set.Insert(w, key) })
					}
				}
			})
		}
		c.SetIdle(true)
		c.WaitOthers(vtime.Microsecond)
		keys = set.Keys()
	})
	e.Run()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	return keys, sys.Stats, buf.Bytes()
}

// TestZeroProfileInjectorIsNoOp is the zero-cost-when-disabled
// contract: an injector built from the zero Profile must be
// behaviourally identical to installing no injector at all — same
// results, same counters, byte-identical telemetry. This is what
// guarantees the hooks draw no randomness and add no virtual time
// unless a fault is actually configured.
func TestZeroProfileInjectorIsNoOp(t *testing.T) {
	k0, h0, tr0 := trial(t, nil)
	k1, h1, tr1 := trial(t, fault.New(fault.Profile{}, 99))
	if h0 != h1 {
		t.Errorf("HTM counters diverge:\n nil: %v\nzero: %v", h0, h1)
	}
	if len(k0) == 0 || len(k0) != len(k1) {
		t.Fatalf("contents diverge: %d vs %d keys", len(k0), len(k1))
	}
	for i := range k0 {
		if k0[i] != k1[i] {
			t.Fatalf("contents diverge at %d: %d vs %d", i, k0[i], k1[i])
		}
	}
	if !bytes.Equal(tr0, tr1) {
		t.Error("telemetry traces diverge between nil injector and zero-profile injector")
	}
}

// TestInjectionIsDeterministic: identical (profile, seed) must yield
// byte-identical telemetry streams and identical injector counters.
func TestInjectionIsDeterministic(t *testing.T) {
	sched, err := fault.LookupSchedule("storm")
	if err != nil {
		t.Fatal(err)
	}
	i1, i2 := fault.New(sched.Profile, 7), fault.New(sched.Profile, 7)
	k1, h1, t1 := trial(t, i1)
	k2, h2, t2 := trial(t, i2)
	if h1 != h2 {
		t.Errorf("HTM counters diverge across identical runs:\n%v\n%v", h1, h2)
	}
	if i1.Stats != i2.Stats {
		t.Errorf("injector counters diverge: %v vs %v", i1.Stats, i2.Stats)
	}
	if !bytes.Equal(t1, t2) {
		t.Error("telemetry traces diverge across identical fault runs")
	}
	if len(k1) != len(k2) {
		t.Errorf("contents diverge: %d vs %d keys", len(k1), len(k2))
	}
}

// TestFaultsChangeBehaviour guards against the opposite failure: a
// schedule that silently injects nothing. Under the storm schedule the
// injector must actually fire.
func TestFaultsChangeBehaviour(t *testing.T) {
	inj := fault.New(mustSchedule(t, "storm").Profile, 7)
	_, h, _ := trial(t, inj)
	_, h0, _ := trial(t, nil)
	if inj.Stats.SpuriousAborts == 0 {
		t.Error("storm schedule armed no spurious aborts")
	}
	if h.TotalAborts() <= h0.TotalAborts() {
		t.Errorf("faults did not increase aborts: %d (faulty) vs %d (clean)",
			h.TotalAborts(), h0.TotalAborts())
	}
}

func mustSchedule(t *testing.T, name string) fault.Schedule {
	t.Helper()
	s, err := fault.LookupSchedule(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInvalDelayPrivateStreamIsDeterministic(t *testing.T) {
	p := fault.Profile{InvalDelayProb: 0.5}
	a, b := fault.New(p, 42), fault.New(p, 42)
	for i := 0; i < 1000; i++ {
		at := vtime.Time(i)
		if a.InvalDelay(at, true) != b.InvalDelay(at, true) {
			t.Fatalf("private streams diverge at draw %d", i)
		}
	}
	if a.Stats.InvalDelays == 0 || a.Stats.InvalDelays == 1000 {
		t.Errorf("InvalDelay prob 0.5 fired %d/1000 times", a.Stats.InvalDelays)
	}
	if d := a.InvalDelay(0, false); d != 0 {
		t.Errorf("local invalidation delayed by %v; only remote ones should be", d)
	}
}

func TestScheduleLookup(t *testing.T) {
	for _, name := range fault.ScheduleNames() {
		s, err := fault.LookupSchedule(name)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Profile.Enabled() {
			t.Errorf("schedule %q has a disabled profile", name)
		}
		if s.Paper == "" {
			t.Errorf("schedule %q cites no paper phenomenon", name)
		}
	}
	if _, err := fault.LookupSchedule("nonesuch"); err == nil {
		t.Error("expected error for unknown schedule")
	} else if !strings.Contains(err.Error(), "spurious") {
		t.Errorf("error should list valid names, got: %v", err)
	}
	if !strings.Contains(fault.ScheduleHelp(), "storm") {
		t.Error("ScheduleHelp missing a schedule")
	}
}
