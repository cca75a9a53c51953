package workload

import (
	"testing"

	"natle/internal/fault"
	"natle/internal/machine"
	"natle/internal/natle"
	"natle/internal/sets"
	"natle/internal/telemetry"
	"natle/internal/vtime"
)

// testNATLE returns a NATLE configuration fast enough for tests (short
// cycles, low warmup threshold) while preserving the 10% profiling
// share.
func testNATLE() natle.Config {
	cfg := natle.DefaultConfig()
	cfg.ProfilingLen = 300 * vtime.Microsecond
	cfg.QuantumLen = 100 * vtime.Microsecond
	cfg.WarmupThreshold = 64
	return cfg
}

func TestReadOnlyScalesAcrossSockets(t *testing.T) {
	run := func(threads int) float64 {
		r := Run(Config{
			Threads:  threads,
			Seed:     3,
			Duration: 300 * vtime.Microsecond,
			Warmup:   100 * vtime.Microsecond,
		})
		return r.Throughput()
	}
	one := run(1)
	full := run(72)
	if full < 12*one {
		t.Errorf("read-only at 72 threads only %.1fx one thread; expected strong scaling", full/one)
	}
}

func TestUpdateWorkloadCollapsesAcrossSockets(t *testing.T) {
	run := func(threads int) *Result {
		return Run(Config{
			Threads:   threads,
			Seed:      3,
			UpdatePct: 100,
			Duration:  600 * vtime.Microsecond,
			Warmup:    200 * vtime.Microsecond,
		})
	}
	peak := run(36)
	over := run(48)
	sat := run(72)
	if over.Throughput() > 0.85*peak.Throughput() {
		t.Errorf("48 threads = %.2fx of 36-thread peak; expected a sharp drop",
			over.Throughput()/peak.Throughput())
	}
	if sat.Throughput() > 0.5*peak.Throughput() {
		t.Errorf("72 threads = %.2fx of peak; expected collapse",
			sat.Throughput()/peak.Throughput())
	}
	if sat.HTM.AbortRate() < peak.HTM.AbortRate() {
		t.Errorf("abort rate fell across the socket boundary: %.2f -> %.2f",
			peak.HTM.AbortRate(), sat.HTM.AbortRate())
	}
}

func TestNATLERescuesCrossSocketCollapse(t *testing.T) {
	ncfg := testNATLE()
	nr := Run(Config{
		Threads:   72,
		Seed:      3,
		UpdatePct: 100,
		Lock:      LockNATLE,
		NATLE:     &ncfg,
		Duration:  4 * vtime.Millisecond,
		Warmup:    1300 * vtime.Microsecond,
	})
	tr := Run(Config{
		Threads:   72,
		Seed:      3,
		UpdatePct: 100,
		Lock:      LockTLE,
		Duration:  3 * vtime.Millisecond,
		Warmup:    600 * vtime.Microsecond,
	})
	if nr.Throughput() < 1.5*tr.Throughput() {
		t.Errorf("NATLE (%.0f ops/s) should clearly beat TLE (%.0f ops/s) at 72 threads",
			nr.Throughput(), tr.Throughput())
	}
	if len(nr.Sync.Timeline) == 0 {
		t.Error("NATLE recorded no profiling cycles")
	}
	throttled := 0
	for _, m := range nr.Sync.Timeline {
		if m.FastestMode != 2 {
			throttled++
		}
	}
	if throttled == 0 {
		t.Error("NATLE never chose a single-socket mode on a collapsing workload")
	}
}

func TestNATLEKeepsScalableWorkloadUnthrottled(t *testing.T) {
	ncfg := testNATLE()
	r := Run(Config{
		Threads:  72,
		Seed:     5,
		Lock:     LockNATLE,
		NATLE:    &ncfg,
		Duration: 3 * vtime.Millisecond,
		Warmup:   1300 * vtime.Microsecond,
	})
	if len(r.Sync.Timeline) == 0 {
		t.Fatal("no profiling cycles recorded")
	}
	unthrottled := 0
	for _, m := range r.Sync.Timeline {
		if m.FastestMode == 2 {
			unthrottled++
		}
	}
	if unthrottled*2 < len(r.Sync.Timeline) {
		t.Errorf("read-only workload throttled in %d/%d cycles; expected mostly unthrottled",
			len(r.Sync.Timeline)-unthrottled, len(r.Sync.Timeline))
	}
}

func TestSearchReplaceNoSyncBeatsTLEBeyondSocket(t *testing.T) {
	// Fig 4's qualitative claim: NUMA hurts TLE far more than the
	// unsynchronized algorithm.
	run := func(kind LockKind, threads int) float64 {
		r := Run(Config{
			Threads:       threads,
			Seed:          7,
			KeyRange:      4096,
			SearchReplace: true,
			Lock:          kind,
			Duration:      400 * vtime.Microsecond,
			Warmup:        150 * vtime.Microsecond,
		})
		return r.Throughput()
	}
	tleDrop := run(LockTLE, 72) / run(LockTLE, 36)
	noneDrop := run(LockNoSync, 72) / run(LockNoSync, 36)
	if tleDrop > noneDrop {
		t.Errorf("TLE 36->72 ratio %.2f should be worse than no-sync %.2f", tleDrop, noneDrop)
	}
}

func TestPinningPoliciesChangeCliffOnset(t *testing.T) {
	// Under alternating pinning, cross-socket traffic exists from two
	// threads on; the update workload should already be far from ideal
	// at 8 threads compared to fill-socket-first.
	run := func(pin machine.PinPolicy) float64 {
		r := Run(Config{
			Pin:       pin,
			Threads:   8,
			Seed:      9,
			UpdatePct: 100,
			Duration:  400 * vtime.Microsecond,
			Warmup:    150 * vtime.Microsecond,
		})
		return r.Throughput()
	}
	fill := run(machine.FillSocketFirst{})
	alt := run(machine.Alternating{})
	if alt > 0.8*fill {
		t.Errorf("alternating (%.0f) should trail fill-socket-first (%.0f) at 8 threads", alt, fill)
	}
}

func TestTwoTreesPerLockDecisions(t *testing.T) {
	ncfg := testNATLE()
	r := RunTwoTrees(TwoTreesConfig{
		Base: Config{
			Threads:  64,
			Seed:     11,
			Lock:     LockNATLE,
			NATLE:    &ncfg,
			Duration: 4 * vtime.Millisecond,
			Warmup:   1300 * vtime.Microsecond,
		},
		SearchWork: 256,
	})
	if r.UpdateOps == 0 || r.SearchOps == 0 {
		t.Fatalf("missing group throughput: upd=%d sch=%d", r.UpdateOps, r.SearchOps)
	}
	count := func(tl []natle.ModeSample) (throttled, total int) {
		for _, m := range tl {
			if m.FastestMode != 2 {
				throttled++
			}
			total++
		}
		return
	}
	ut, utot := count(r.UpdateSync.Timeline)
	st, stot := count(r.SearchSync.Timeline)
	if utot == 0 || stot == 0 {
		t.Fatal("missing NATLE timelines")
	}
	if ut == 0 {
		t.Errorf("update tree never throttled (%d cycles)", utot)
	}
	if st*2 > stot {
		t.Errorf("search tree throttled in %d/%d cycles; expected mostly unthrottled", st, stot)
	}
}

// TestTwoTreesInstallsRecorderAndFaults: RunTwoTrees honours its
// Base's Recorder and Fault as Run does, rather than silently running
// without them.
func TestTwoTreesInstallsRecorderAndFaults(t *testing.T) {
	run := func(rec telemetry.Recorder, prof *fault.Profile) *TwoTreesResult {
		return RunTwoTrees(TwoTreesConfig{
			Base: Config{
				Threads:  4,
				Seed:     5,
				Lock:     LockTLE,
				Duration: 100 * vtime.Microsecond,
				Warmup:   50 * vtime.Microsecond,
				Recorder: rec,
				Fault:    prof,
			},
			SearchWork: 256,
		})
	}
	col := telemetry.NewCollector(telemetry.Config{})
	run(col, nil)
	if col.Commits() == 0 {
		t.Error("the collector recorded no commit events")
	}
	aborts := func(r *TwoTreesResult) uint64 {
		return r.UpdateSync.TLE.TotalAborts() + r.SearchSync.TLE.TotalAborts()
	}
	clean := aborts(run(nil, nil))
	faulty := aborts(run(nil, &fault.Profile{SpuriousAbortRate: 0.05}))
	if faulty <= clean {
		t.Errorf("5%% spurious aborts gave %d TLE aborts, no more than %d without faults", faulty, clean)
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := Config{
		Threads:   24,
		Seed:      42,
		UpdatePct: 50,
		SetKind:   sets.KindSkipList,
		Duration:  200 * vtime.Microsecond,
		Warmup:    50 * vtime.Microsecond,
	}
	a, b := Run(cfg), Run(cfg)
	if a.Ops != b.Ops || a.HTM != b.HTM {
		t.Errorf("identical configs diverged: ops %d vs %d", a.Ops, b.Ops)
	}
}
