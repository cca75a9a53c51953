package telemetry

import (
	"testing"

	"natle/internal/vtime"
)

// TestHotPathsAllocateNothing: every recorder hook, and the histogram
// and counter under them, runs once per simulated transaction or
// cache access, so none may allocate — with the trace ring on, cache
// events included, so that the event append is measured too.
func TestHotPathsAllocateNothing(t *testing.T) {
	c := NewCollector(Config{TraceCap: 64, TraceCache: true})
	id := c.RegisterLock("l")
	var h Histogram
	sc := NewShardedCounter(4)
	const at, dur = vtime.Time(1000), 200 * vtime.Nanosecond
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"TxStart", func() { c.TxStart(at, 3, 1, id) }},
		{"TxCommit", func() { c.TxCommit(at, 3, 1, id, dur, 8, 2) }},
		{"TxAbort", func() { c.TxAbort(at, 3, 1, id, CodeConflict, true, dur) }},
		{"Fallback", func() { c.Fallback(at, 3, 1, id, dur) }},
		{"Wait", func() { c.Wait(at, 3, 1, id, dur) }},
		{"CacheMiss", func() { c.CacheMiss(at, 1, true) }},
		{"CacheInval", func() { c.CacheInval(at, 1, true) }},
		{"Breaker", func() { c.Breaker(at, 3, 1, id, true) }},
		{"Brownout", func() { c.Brownout(at, 3, 1, 0, 1) }},
		{"Histogram.Observe", func() { h.Observe(dur) }},
		{"ShardedCounter.Add", func() { sc.Add(5, 1) }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, n)
		}
	}
}
