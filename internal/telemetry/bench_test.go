package telemetry

import (
	"testing"

	"natle/internal/vtime"
)

// BenchmarkHistogramObserve times one observation of a span that moves
// through eight log₂ buckets in turn.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(vtime.Duration(1000 << (i & 7)))
	}
}

// BenchmarkCollectorTxCommit times one commit event into a collector
// with one registered lock, counters and histograms only (no trace
// ring), from slots spread over two sockets as a simulated trial
// reports them.
func BenchmarkCollectorTxCommit(b *testing.B) {
	c := NewCollector(Config{})
	id := c.RegisterLock("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		slot := i & 63
		c.TxCommit(vtime.Time(i), slot, slot>>5, id, 200*vtime.Nanosecond, 8, 2)
	}
}
