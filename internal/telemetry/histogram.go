package telemetry

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"natle/internal/vtime"
)

// HistBuckets is the number of log₂ buckets: bucket b counts
// observations d with 2^(b-1) ≤ d < 2^b picoseconds (bucket 0 counts
// d ≤ 0 ps, which can occur for zero-cost spans). 63 buckets cover the
// whole non-negative Duration range.
const HistBuckets = 64

// Histogram is a log₂-bucketed duration histogram with atomic
// updates, so it can be shared by concurrent observers without
// locking. Use Snapshot for consistent reads and windowed deltas.
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
	sum    atomic.Uint64 // total observed picoseconds
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d vtime.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// Observe adds one observation.
func (h *Histogram) Observe(d vtime.Duration) {
	h.counts[bucketOf(d)].Add(1)
	if d > 0 {
		h.sum.Add(uint64(d))
	}
}

// Merge adds o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.sum.Add(o.sum.Load())
}

// Snapshot captures the current buckets for queries and deltas.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.SumPs = h.sum.Load()
	return s
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile returns the q-quantile (e.g. 0.5, 0.99) of the current
// contents; see HistogramSnapshot.Quantile.
func (h *Histogram) Quantile(q float64) vtime.Duration {
	s := h.Snapshot()
	return s.Quantile(q)
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Being a
// plain counter struct, windowed deltas come from telemetry.Sub.
type HistogramSnapshot struct {
	Counts [HistBuckets]uint64
	SumPs  uint64
}

// Sub returns the windowed delta s - t.
func (s HistogramSnapshot) Sub(t HistogramSnapshot) HistogramSnapshot { return Sub(s, t) }

// Count returns the number of observations.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns the mean observation.
func (s HistogramSnapshot) Mean() vtime.Duration {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return vtime.Duration(s.SumPs / n)
}

// Quantile returns the q-quantile (q in [0,1]), interpolated linearly
// within the containing log₂ bucket. Resolution is therefore the
// bucket width (a factor of 2), which is ample for latency
// distributions spanning decades.
func (s HistogramSnapshot) Quantile(q float64) vtime.Duration {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for b, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, hi := bucketBounds(b)
			frac := 0.5
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			return lo + vtime.Duration(float64(hi-lo)*frac)
		}
		cum = next
	}
	// Fell through (rank beyond last non-empty bucket): max bound.
	for b := HistBuckets - 1; b >= 0; b-- {
		if s.Counts[b] != 0 {
			_, hi := bucketBounds(b)
			return hi
		}
	}
	return 0
}

// bucketBounds returns the [lo, hi) duration range of bucket b.
func bucketBounds(b int) (lo, hi vtime.Duration) {
	if b == 0 {
		return 0, 1
	}
	return 1 << uint(b-1), 1 << uint(b)
}

// String renders count, mean and key percentiles.
func (s HistogramSnapshot) String() string {
	if s.Count() == 0 {
		return "empty"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v",
		s.Count(), s.Mean(), s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99))
}
