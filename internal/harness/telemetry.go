package harness

import (
	"fmt"

	"natle/internal/expt"
	"natle/internal/telemetry"
	"natle/internal/workload"
)

// PlanTelemetry sweeps the Figure 12 workload (AVL tree, 100% updates,
// keys [0,2048)) under TLE with a telemetry collector attached and
// tabulates what the counters expose beyond raw throughput: the abort
// rate, the share of aborts caused by cross-socket conflicts' cache
// traffic (remote misses per commit), and the tail of the
// commit-latency and abort-to-retry-gap distributions. Each trial owns
// its private collector (recorders are never shared across pool
// workers); the per-lock × per-socket attribution for the final trial
// is attached as notes after the barrier — the axes of the paper's
// abort-breakdown figures (cause × socket).
func PlanTelemetry(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "telemetry",
		Title:  "AVL tree, 100% updates, keys [0,2048), TLE: telemetry roll-up",
		XLabel: "threads",
		YLabel: "mixed",
	}
	for i, n := range sc.LargeThreads {
		last := i == len(sc.LargeThreads)-1
		p.Add(expt.TrialSpec{
			Key: fmt.Sprintf("telemetry/%d", n),
			Run: func() expt.Outcome {
				col := telemetry.NewCollector(telemetry.Config{})
				r := sc.run(workload.Config{
					Prof: large(), Threads: n, UpdatePct: 100, KeyRange: 2048,
					Recorder: col,
				})
				sum := col.Summary()
				x := float64(n)
				o := expt.Outcome{Points: []expt.Point{
					{Series: "abort%", X: x, Y: 100 * sum.AbortRate},
					{Series: "fallback/op", X: x, Y: safeDiv(float64(sum.Fallbacks), float64(r.Sync.TLE.Ops))},
					{Series: "rmiss/commit", X: x, Y: safeDiv(float64(sum.RemoteCacheMisses), float64(sum.Commits))},
					{Series: "commit-p99[ns]", X: x, Y: sum.CommitLatency.P99Ns},
					{Series: "abortgap-p50[ns]", X: x, Y: sum.AbortGap.P50Ns},
				}}
				if last {
					o.Notes = attributionNotes(n, sum)
				}
				return o
			},
		})
	}
	return p
}

// attributionNotes renders the per-lock × per-socket breakdown of one
// trial's summary as figure notes.
func attributionNotes(threads int, sum telemetry.Summary) []string {
	notes := []string{
		fmt.Sprintf("per-lock × per-socket attribution at %d threads:", threads),
	}
	for _, l := range sum.Locks {
		for s, cell := range l.PerSocket {
			if cell == (telemetry.LockCell{}) {
				continue
			}
			notes = append(notes, fmt.Sprintf(
				"  %s socket %d: starts=%d commits=%d fallbacks=%d aborts[conflict=%d capacity=%d lock-held=%d]",
				l.Name, s, cell.Starts, cell.Commits, cell.Fallbacks,
				cell.Aborts[telemetry.CodeConflict],
				cell.Aborts[telemetry.CodeCapacity],
				cell.Aborts[telemetry.CodeLockHeld]))
		}
	}
	return notes
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
