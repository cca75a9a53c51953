package tle_test

import (
	"reflect"
	"testing"

	"natle/internal/fault"
	"natle/internal/telemetry"
	"natle/internal/tle"
	"natle/internal/vtime"
	"natle/internal/workload"
)

// seqRand is a deterministic Intn source standing in for a sim thread
// RNG in unit tests.
type seqRand struct{ x uint64 }

func (r *seqRand) Intn(n int) int {
	r.x = r.x*6364136223846793005 + 1442695040888963407
	return int((r.x >> 33) % uint64(n))
}

func TestBackoffBoundsGrowThenSaturate(t *testing.T) {
	b := tle.Backoff{Base: 100 * vtime.Nanosecond, Cap: 800 * vtime.Nanosecond}
	maxSeen := make([]vtime.Duration, 8)
	r := &seqRand{x: 1}
	for draw := 0; draw < 4000; draw++ {
		for a := range maxSeen {
			g := b.Gap(r, a)
			if g < 0 {
				t.Fatalf("negative gap %v at attempt %d", g, a)
			}
			bound := b.Base << a
			if bound > b.Cap {
				bound = b.Cap
			}
			if g >= bound {
				t.Fatalf("attempt %d: gap %v >= bound %v", a, g, bound)
			}
			if g > maxSeen[a] {
				maxSeen[a] = g
			}
		}
	}
	// The observed maxima must actually use the growing bound: each
	// doubling attempt's max should exceed the previous bound, and the
	// cap must bind from attempt 3 on (100<<3 = 800).
	for a := 1; a <= 3; a++ {
		if maxSeen[a] <= maxSeen[0] {
			t.Errorf("attempt %d max %v not larger than attempt 0 max %v",
				a, maxSeen[a], maxSeen[0])
		}
	}
	for a := 3; a < 8; a++ {
		if maxSeen[a] >= b.Cap {
			t.Errorf("attempt %d: max %v at or above cap %v", a, maxSeen[a], b.Cap)
		}
		if maxSeen[a] < b.Cap/2 {
			t.Errorf("attempt %d: max %v never reached the cap region", a, maxSeen[a])
		}
	}
}

func TestBackoffZeroValueUsesDefaults(t *testing.T) {
	var b tle.Backoff
	r := &seqRand{x: 7}
	for i := 0; i < 10000; i++ {
		if g := b.Gap(r, 30); g >= tle.DefaultBackoffCap {
			t.Fatalf("gap %v at or above default cap", g)
		}
	}
	for i := 0; i < 10000; i++ {
		if g := b.Gap(r, 0); g >= tle.DefaultBackoffBase {
			t.Fatalf("first-retry gap %v at or above default base", g)
		}
	}
}

func TestBackoffDeterministic(t *testing.T) {
	b := tle.Backoff{}
	r1, r2 := &seqRand{x: 3}, &seqRand{x: 3}
	for i := 0; i < 1000; i++ {
		if b.Gap(r1, i%10) != b.Gap(r2, i%10) {
			t.Fatalf("gap sequences diverge at %d", i)
		}
	}
}

// TestRetryGapHistogramPinned is the distribution pin: the same
// (profile, seed, schedule) must reproduce the abort→retry gap
// histogram of the telemetry recorder exactly, so any change to the
// backoff draw order or shape is caught as a diff, not as silent
// nondeterminism.
func TestRetryGapHistogramPinned(t *testing.T) {
	run := func() (telemetry.HistogramSnapshot, uint64) {
		rec := telemetry.NewCollector(telemetry.Config{})
		r := workload.Run(workload.Config{
			Threads:   8,
			Seed:      11,
			UpdatePct: 100,
			KeyRange:  128,
			Duration:  300 * vtime.Microsecond,
			Warmup:    50 * vtime.Microsecond,
			Lock:      workload.LockTLE,
			Recorder:  rec,
			Fault:     &fault.Profile{SpuriousAbortRate: 0.002},
		})
		return rec.AbortGap(), r.HTM.Starts
	}
	h1, s1 := run()
	h2, s2 := run()
	if s1 != s2 {
		t.Fatalf("runs diverge: %d vs %d starts", s1, s2)
	}
	if h1.Count() == 0 {
		t.Fatal("no abort→retry gaps recorded; the workload never retried")
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Error("retry-gap histograms diverge across identical runs")
	}
	// The backoff cap bounds every retry gap the policy inserts; the
	// recorded gap additionally contains abort unwinding and (rarely)
	// lock-held waiting, so allow generous headroom while still pinning
	// the distribution's tail to the same order of magnitude.
	if p99 := h1.Quantile(0.99); p99 > 40*vtime.Microsecond {
		t.Errorf("retry-gap p99 %v far above the backoff cap %v", p99, tle.DefaultBackoffCap)
	}
}

// TestRetryPathsAllocateNothing: the backoff draw runs after every
// abort, and a service shard consults its retry budget on every batch.
func TestRetryPathsAllocateNothing(t *testing.T) {
	r := &seqRand{}
	b := tle.NewRetryBudget(4, 10*vtime.Microsecond)
	now := vtime.Time(0)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Backoff.Gap", func() { tle.Backoff{}.Gap(r, 3) }},
		{"RetryBudget.Spend", func() { now = now.Add(vtime.Microsecond); b.Spend(now, 1) }},
		{"RetryBudget.Allow", func() { now = now.Add(vtime.Microsecond); b.Allow(now) }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, n)
		}
	}
}
