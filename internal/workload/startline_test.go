package workload_test

import (
	"fmt"
	"testing"

	"natle/internal/sets"
	"natle/internal/telemetry"
	"natle/internal/vtime"
	"natle/internal/workload"
)

// zeroWindow is a trial whose warm-up and window are 1 ns each: engine,
// memory, prefill and the spawn of every thread, then at most one
// operation per worker. It is what the end-to-end benchmark calls the
// set-up of a trial.
func zeroWindow(threads int) workload.Config {
	return workload.Config{
		Threads: threads, Seed: 1,
		SetKind: sets.KindAVL, KeyRange: 2048, UpdatePct: 100,
		Lock:   workload.LockNATLE,
		Warmup: vtime.Nanosecond, Duration: vtime.Nanosecond,
	}
}

// TestWorkersStartTogether: every worker leaves one start line, so a
// zero-window trial is one operation per worker, and an operation among
// 72 that begin together is a few attempts at most. Prefill is not
// transactional, so a collector's whole-trial count is the workers'
// alone, in either of Run's shapes (the windowed per-lock counters of a
// 1 ns window hold almost none). While worker i began i spawn overheads
// before the last one existed, the sets and two-trees trials attempted
// 211,907 and 501,369 transactions before their windows opened.
func TestWorkersStartTogether(t *testing.T) {
	const threads = 72
	twoTrees := zeroWindow(threads)
	twoTrees.Workload, twoTrees.UpdatePct = workload.BackendTwoTrees, 0
	for name, cfg := range map[string]workload.Config{
		"sets":     zeroWindow(threads),
		"twotrees": twoTrees,
	} {
		col := telemetry.NewCollector(telemetry.Config{})
		cfg.Recorder = col
		workload.Run(cfg)
		if n := col.Summary().Starts; n == 0 || n > 2*threads {
			t.Errorf("%s: %d transactions attempted in a zero-window trial of %d threads, want 1..%d",
				name, n, threads, 2*threads)
		}
	}
}

// BenchmarkTrialSetup is the host cost of one zero-window trial by
// thread count: linear while the workers share a start line, quadratic
// if the trial simulates its own spawn stagger.
func BenchmarkTrialSetup(b *testing.B) {
	for _, threads := range []int{8, 36, 72} {
		b.Run(fmt.Sprint(threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				workload.Run(zeroWindow(threads))
			}
		})
	}
}
