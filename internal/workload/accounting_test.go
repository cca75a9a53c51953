package workload

import (
	"testing"

	"natle/internal/backend"
	"natle/internal/machine"
	"natle/internal/scheme"
	"natle/internal/sets"
	"natle/internal/vtime"
)

// TestEveryMutexSchemeRunsEverySet drives the trial driver through
// every registered sim scheme that excludes mutually (the lock kinds
// are whatever the registry holds, not a closed enum) on every set
// kind: each pair completes operations, and the per-socket split sums
// to the total.
func TestEveryMutexSchemeRunsEverySet(t *testing.T) {
	for _, d := range scheme.AllFor(backend.Sim) {
		if !d.Mutex {
			continue // unsynchronized updates would corrupt the set
		}
		for _, kind := range sets.Kinds() {
			t.Run(d.Name+"/"+string(kind), func(t *testing.T) {
				r := Run(Config{
					Prof:      machine.SmallI7(),
					Threads:   2,
					Seed:      2,
					SetKind:   kind,
					KeyRange:  128,
					UpdatePct: 50,
					Lock:      LockKind(d.Name),
					Duration:  50 * vtime.Microsecond,
					Warmup:    20 * vtime.Microsecond,
				})
				if r.Ops == 0 {
					t.Fatal("no ops")
				}
				var sum uint64
				for _, n := range r.PerSock {
					sum += n
				}
				if sum != r.Ops {
					t.Errorf("per-socket ops sum %d != total %d", sum, r.Ops)
				}
			})
		}
	}
}

func TestPerSocketOpsSumToTotal(t *testing.T) {
	r := Run(Config{
		Threads:   48,
		Seed:      19,
		UpdatePct: 20,
		Duration:  300 * vtime.Microsecond,
		Warmup:    100 * vtime.Microsecond,
	})
	var sum uint64
	for _, n := range r.PerSock {
		sum += n
	}
	if sum != r.Ops {
		t.Errorf("per-socket ops sum %d != total %d", sum, r.Ops)
	}
	if r.PerSock[0] == 0 || r.PerSock[1] == 0 {
		t.Errorf("48 threads must span both sockets: %v", r.PerSock[:2])
	}
}

func TestWarmupExcludedFromCounts(t *testing.T) {
	// Doubling the warmup must not change the measured window's
	// throughput materially (same duration, later window).
	short := Run(Config{
		Threads: 8, Seed: 21, UpdatePct: 50,
		Duration: 300 * vtime.Microsecond, Warmup: 100 * vtime.Microsecond,
	})
	long := Run(Config{
		Threads: 8, Seed: 21, UpdatePct: 50,
		Duration: 300 * vtime.Microsecond, Warmup: 200 * vtime.Microsecond,
	})
	ratio := short.Throughput() / long.Throughput()
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("throughput should be warmup-invariant: %.0f vs %.0f", short.Throughput(), long.Throughput())
	}
}

func TestSearchReplaceModeCountsOps(t *testing.T) {
	r := Run(Config{
		Threads: 4, Seed: 23, SearchReplace: true, KeyRange: 512,
		Duration: 150 * vtime.Microsecond, Warmup: 50 * vtime.Microsecond,
	})
	if r.Ops == 0 {
		t.Fatal("search-replace mode produced no ops")
	}
	// Search-and-replace writes even in "read" operations, so the
	// cache must show invalidation traffic.
	if r.Cache.LocalInvals == 0 && r.Cache.RemoteInvals == 0 {
		t.Error("no invalidation traffic from search-and-replace writes")
	}
}

func TestHTMWindowedStatsConsistent(t *testing.T) {
	r := Run(Config{
		Threads: 12, Seed: 25, UpdatePct: 100,
		Duration: 300 * vtime.Microsecond, Warmup: 100 * vtime.Microsecond,
	})
	// The measurement window cuts mid-flight: transactions that start
	// inside the window may resolve after it (and vice versa), so the
	// balance equations hold only up to one in-flight transaction per
	// thread.
	const threads = 12
	within := func(a, b uint64) bool {
		d := int64(a) - int64(b)
		return d <= threads && d >= -threads
	}
	if !within(r.HTM.Commits+r.HTM.TotalAborts(), r.HTM.Starts) {
		t.Errorf("commits %d + aborts %d far from starts %d",
			r.HTM.Commits, r.HTM.TotalAborts(), r.HTM.Starts)
	}
	if !within(r.Sync.TLE.Commits+r.Sync.TLE.Fallbacks, r.Sync.TLE.Ops) {
		t.Errorf("TLE commits %d + fallbacks %d far from ops %d",
			r.Sync.TLE.Commits, r.Sync.TLE.Fallbacks, r.Sync.TLE.Ops)
	}
	if r.HTM.AvgCommitDuration() <= 0 {
		t.Error("zero average commit duration with committed transactions")
	}
}
