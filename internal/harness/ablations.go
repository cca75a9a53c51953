package harness

import (
	"fmt"

	"natle/internal/backend"
	"natle/internal/expt"
	"natle/internal/machine"
	"natle/internal/scheme"
	"natle/internal/vtime"
	"natle/internal/workload"
)

// peakThreads returns the scale's largest thread count, the
// cross-socket point the ablations measure (72 at QuickScale and
// FullScale).
func (sc Scale) peakThreads() int { return sc.LargeThreads[len(sc.LargeThreads)-1] }

// PlanAblationRemoteLatency sweeps the cross-socket transfer latency
// and shows how the size of the 36->72 collapse tracks the
// remote/local latency ratio — the mechanism behind the paper's
// Section 3.2 hypothesis. Each latency point is two independent trials
// (the scale's peak and half-peak thread counts) reduced to their
// ratio after the barrier.
func PlanAblationRemoteLatency(sc Scale) *expt.Plan {
	peak := sc.peakThreads()
	half := peak / 2 // the one-socket reference
	ratioName := fmt.Sprintf("t(%d)/t(%d)", peak, half)
	p := &expt.Plan{
		ID:     "ablation-remote-latency",
		Title:  fmt.Sprintf("%d-thread throughput relative to %d-thread peak vs remote latency", peak, half),
		XLabel: "remote/local latency ratio",
		YLabel: ratioName,
	}
	for _, remote := range []vtime.Duration{
		20 * vtime.Nanosecond, 60 * vtime.Nanosecond, 135 * vtime.Nanosecond,
		240 * vtime.Nanosecond, 400 * vtime.Nanosecond,
	} {
		prof := func() *machine.Profile {
			p := machine.LargeX52()
			p.RemoteHit = remote
			p.RemoteInval = remote * 3 / 8
			p.RemoteDRAM = remote + 20*vtime.Nanosecond
			return p
		}
		run := func(n int) expt.Outcome {
			return expt.Value(sc.thr(workload.Config{
				Prof: prof(), Threads: n, UpdatePct: 100, KeyRange: 2048,
			}))
		}
		ratio := float64(remote) / float64(machine.LargeX52().L3Hit)
		denom := fmt.Sprintf("remote%d/%d", remote, half)
		p.Add(expt.TrialSpec{
			Key:    denom,
			Run:    func() expt.Outcome { return run(half) },
			Reduce: expt.Discard,
		})
		p.Add(expt.TrialSpec{
			Key:    fmt.Sprintf("remote%d/%d", remote, peak),
			Run:    func() expt.Outcome { return run(peak) },
			Reduce: expt.Ratio(ratioName, ratio, denom),
		})
	}
	return p
}

// PlanAblationProfilingLen sweeps the NATLE cycle length (keeping the
// 10% profiling share) and reports both the read-only overhead (the
// paper's 27% observation) and the peak-thread update throughput —
// shorter cycles react faster but switch sockets more often. Each
// plotted ratio is a NATLE trial divided by its hidden TLE
// denominator trial.
func PlanAblationProfilingLen(sc Scale) *expt.Plan {
	peak := sc.peakThreads()
	p := &expt.Plan{
		ID:     "ablation-profiling-len",
		Title:  fmt.Sprintf("NATLE cycle length: read-only overhead vs update rescue (%d threads)", peak),
		XLabel: "quantum (us)",
		YLabel: "ratio",
	}
	for _, q := range []vtime.Duration{
		30 * vtime.Microsecond, 60 * vtime.Microsecond,
		120 * vtime.Microsecond, 240 * vtime.Microsecond,
	} {
		n := sc.NATLE
		n.ProfilingLen, n.QuantumLen = q, q
		dur := 4 * (n.ProfilingLen + vtime.Duration(n.Quanta)*n.QuantumLen)
		run := func(upd int, lk workload.LockKind) expt.Outcome {
			ncfg := n
			return expt.Value(workload.Run(workload.Config{
				Threads: peak, UpdatePct: upd, KeyRange: 2048, Lock: lk,
				NATLE: &ncfg, Seed: sc.Seed,
				Duration: dur, Warmup: dur / 4,
			}).Throughput())
		}
		x := float64(q) / float64(vtime.Microsecond)
		for _, c := range []struct {
			series string
			upd    int
		}{
			{"read-only NATLE/TLE", 0},
			{"100%-upd NATLE/TLE", 100},
		} {
			denom := fmt.Sprintf("q%gus/upd%d/tle", x, c.upd)
			p.Add(expt.TrialSpec{
				Key:    denom,
				Run:    func() expt.Outcome { return run(c.upd, workload.LockTLE) },
				Reduce: expt.Discard,
			})
			p.Add(expt.TrialSpec{
				Key:    fmt.Sprintf("q%gus/upd%d/natle", x, c.upd),
				Run:    func() expt.Outcome { return run(c.upd, workload.LockNATLE) },
				Reduce: expt.Ratio(c.series, x, denom),
			})
		}
	}
	return p
}

// PlanAblationWarmupThreshold shows the effect of the 256-acquisition
// floor: with the floor disabled (threshold 0), sparse profiling data
// can lock in a one-socket decision on a workload that scales.
func PlanAblationWarmupThreshold(sc Scale) *expt.Plan {
	peak := sc.peakThreads()
	p := &expt.Plan{
		ID:     "ablation-warmup-threshold",
		Title:  fmt.Sprintf("NATLE warmup threshold: read-only %d-thread throughput", peak),
		XLabel: "threshold",
		YLabel: "ops/s",
	}
	for _, th := range []uint64{0, 16, 64, 256, 1024} {
		p.Add(expt.TrialSpec{
			Key: fmt.Sprintf("threshold/%d", th),
			Run: func() expt.Outcome {
				n := sc.NATLE
				n.WarmupThreshold = th
				return expt.Value(workload.Run(workload.Config{
					Threads: peak, UpdatePct: 0, KeyRange: 2048,
					// Long external work keeps acquisition counts per
					// profiling window low, which is where the floor
					// matters.
					ExternalWork: 2048,
					Lock:         workload.LockNATLE, NATLE: &n, Seed: sc.Seed,
					Duration: sc.NATLEDur, Warmup: sc.NATLEWarmup,
				}).Throughput())
			},
			Reduce: expt.Emit("read-only+work", float64(th)),
		})
	}
	return p
}

// PlanAblationQuanta sweeps the number of quanta per cycle (the paper
// uses 9) at fixed cycle length, trading profiling staleness against
// switching frequency.
func PlanAblationQuanta(sc Scale) *expt.Plan {
	peak := sc.peakThreads()
	p := &expt.Plan{
		ID:     "ablation-quanta",
		Title:  fmt.Sprintf("NATLE quanta per cycle: %d-thread 100%%-update throughput", peak),
		XLabel: "quanta",
		YLabel: "ops/s",
	}
	cycleBudget := 9 * sc.NATLE.QuantumLen
	for _, q := range []int{3, 6, 9, 18} {
		p.Add(expt.TrialSpec{
			Key: fmt.Sprintf("quanta/%d", q),
			Run: func() expt.Outcome {
				n := sc.NATLE
				n.Quanta = q
				n.QuantumLen = cycleBudget / vtime.Duration(q)
				return expt.Value(workload.Run(workload.Config{
					Threads: peak, UpdatePct: 100, KeyRange: 2048,
					Lock: workload.LockNATLE, NATLE: &n, Seed: sc.Seed,
					Duration: sc.NATLEDur, Warmup: sc.NATLEWarmup,
				}).Throughput())
			},
			Reduce: expt.Emit("100% upd", float64(q)),
		})
	}
	return p
}

// PlanAblationAdaptiveProfiling measures the extension that implements
// the paper's "dynamically adapting these settings" future work:
// skipping profiling during stable periods. It reports NATLE/TLE
// throughput ratios on the read-only workload (where profiling is pure
// overhead and adaptation should close the gap the paper reports as
// ~27%) and on the 100%-update workload (where adaptation must not
// lose the throttling benefit).
func PlanAblationAdaptiveProfiling(sc Scale) *expt.Plan {
	peak := sc.peakThreads()
	p := &expt.Plan{
		ID:     "ablation-adaptive-profiling",
		Title:  fmt.Sprintf("Adaptive profiling frequency: NATLE/TLE at %d threads (0=fixed, 1=adaptive)", peak),
		XLabel: "adaptive",
		YLabel: "NATLE/TLE throughput",
	}
	for i, adapt := range []bool{false, true} {
		run := func(upd int, lk workload.LockKind) expt.Outcome {
			n := sc.NATLE
			n.AdaptProfiling = adapt
			return expt.Value(workload.Run(workload.Config{
				Threads: peak, UpdatePct: upd, KeyRange: 2048, Lock: lk,
				NATLE: &n, Seed: sc.Seed,
				Duration: 3 * sc.NATLEDur, Warmup: sc.NATLEWarmup,
			}).Throughput())
		}
		for _, c := range []struct {
			series string
			upd    int
		}{
			{"read-only", 0},
			{"100% updates", 100},
		} {
			denom := fmt.Sprintf("adapt%d/upd%d/tle", i, c.upd)
			p.Add(expt.TrialSpec{
				Key:    denom,
				Run:    func() expt.Outcome { return run(c.upd, workload.LockTLE) },
				Reduce: expt.Discard,
			})
			p.Add(expt.TrialSpec{
				Key:    fmt.Sprintf("adapt%d/upd%d/natle", i, c.upd),
				Run:    func() expt.Outcome { return run(c.upd, workload.LockNATLE) },
				Reduce: expt.Ratio(c.series, float64(i), denom),
			})
		}
	}
	return p
}

// PlanLocks is an extension comparison beyond the paper's figures:
// every registered synchronization scheme on the 100%-update AVL
// workload. It situates NATLE against the concurrency-restriction
// technique the paper's related work identifies as closest (cohort
// locks throttle remote threads at lock granularity; NATLE at
// socket-schedule granularity, while keeping elision). The grid
// iterates the scheme registry, so a scheme registered tomorrow shows
// up here with no edit; entries without mutual exclusion ("none"
// would corrupt the shared set) or without guaranteed completion
// ("htm-raw" has no capacity fallback) are skipped.
func PlanLocks(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "locks",
		Title:  "Lock schemes on AVL keys [0,2048), 100% updates: ops/s",
		XLabel: "threads",
		YLabel: "ops/s",
	}
	for _, d := range scheme.AllFor(backend.Sim) {
		if !d.Mutex || !d.Robust {
			continue
		}
		valueSeries(p, d.Name, sc.LargeThreads, func(n int) float64 {
			return sc.thr(workload.Config{
				Threads: n, UpdatePct: 100, KeyRange: 2048,
				Lock: workload.LockKind(d.Name),
			})
		})
	}
	return p
}

// PlanDelegation compares TLE against the Section 4.1 delegation
// baselines (single-operation and batched) on the update-heavy AVL
// workload.
func PlanDelegation(sc Scale, batches []int) *expt.Plan {
	p := &expt.Plan{
		ID:     "delegation",
		Title:  "Delegation baselines vs TLE, AVL keys [0,2048), 100% updates: ops/s",
		XLabel: "threads",
		YLabel: "ops/s",
		Notes: []string{
			"paper section 4.1: delegation doubled per-operation performance but coordination overhead dominated",
		},
	}
	valueSeries(p, "TLE-20", sc.LargeThreads, func(n int) float64 {
		return sc.thr(workload.Config{Threads: n, UpdatePct: 100, KeyRange: 2048})
	})
	for _, b := range batches {
		name := "delegation"
		if b > 1 {
			name = fmt.Sprintf("delegation-batch%d", b)
		}
		for _, n := range sc.LargeThreads {
			if n < 3 { // needs at least one client beyond the two servers
				continue
			}
			p.Add(expt.TrialSpec{
				Key:    fmt.Sprintf("%s/%d", name, n),
				Run:    func() expt.Outcome { return expt.Value(RunDelegation(sc, n, b)) },
				Reduce: expt.Emit(name, float64(n)),
			})
		}
	}
	return p
}
