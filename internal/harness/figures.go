package harness

import (
	"fmt"

	"natle/internal/expt"
	"natle/internal/machine"
	"natle/internal/sets"
	"natle/internal/tle"
	"natle/internal/vtime"
	"natle/internal/workload"
)

// run executes one microbenchmark trial with the scale's defaults.
func (sc Scale) run(cfg workload.Config) *workload.Result {
	if cfg.Seed == 0 {
		cfg.Seed = sc.Seed
	}
	if cfg.Duration == 0 {
		if cfg.Lock == workload.LockNATLE {
			cfg.Duration, cfg.Warmup = sc.NATLEDur, sc.NATLEWarmup
		} else {
			cfg.Duration, cfg.Warmup = sc.Dur, sc.Warmup
		}
	}
	if cfg.Lock == workload.LockNATLE && cfg.NATLE == nil {
		n := sc.NATLE
		cfg.NATLE = &n
	}
	return workload.Run(cfg)
}

// thr runs one trial and returns its throughput (the scalar most
// specs measure).
func (sc Scale) thr(cfg workload.Config) float64 { return sc.run(cfg).Throughput() }

// PlanFig01 reproduces Figure 1: speedup of the 100%-update AVL
// microbenchmark (keys [0,2048)) on the large and small machines.
func PlanFig01(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig01",
		Title:  "AVL tree, 100% updates, keys [0,2048): speedup over 1 thread",
		XLabel: "threads",
		YLabel: "speedup",
	}
	for _, m := range []struct {
		name    string
		prof    func() *machine.Profile
		threads []int
	}{
		{"large", large, sc.LargeThreads},
		{"small", small, sc.SmallThreads},
	} {
		speedupSeries(p, m.name, m.threads, func(n int) float64 {
			return sc.thr(workload.Config{
				Prof: m.prof(), Threads: n, UpdatePct: 100, KeyRange: 2048,
			})
		})
	}
	return p
}

// retryPolicies is the Figure 2(a) policy matrix.
func retryPolicies() []tle.Policy {
	return []tle.Policy{
		{Attempts: 5, HonorHint: true},
		{Attempts: 20, HonorHint: true},
		{Attempts: 5},
		{Attempts: 20},
		{Attempts: 5, CountLockHeld: true},
		{Attempts: 20, CountLockHeld: true},
	}
}

// PlanFig02a reproduces Figure 2(a): TLE retry policies on a large AVL
// tree (keys [0,131072)), 100% updates.
func PlanFig02a(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig02a",
		Title:  "AVL tree, 100% updates, keys [0,131072): retry policies, speedup over 1 thread",
		XLabel: "threads",
		YLabel: "speedup",
	}
	for _, pol := range retryPolicies() {
		speedupSeries(p, pol.Name(), sc.LargeThreads, func(n int) float64 {
			return sc.thr(workload.Config{
				Threads: n, UpdatePct: 100, KeyRange: 131072, TLE: pol,
				MemWords: 1 << 22,
			})
		})
	}
	return p
}

// PlanFig02b reproduces Figure 2(b): the percentage of TLE-20 critical
// sections that commit in a transaction after at least one earlier
// attempt failed with the hint bit clear.
func PlanFig02b(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig02b",
		Title:  "Percent of operations committing after a hint-clear failure (TLE-20)",
		XLabel: "threads",
		YLabel: "percent",
	}
	valueSeries(p, "TLE-20", sc.LargeThreads, func(n int) float64 {
		r := sc.run(workload.Config{
			Threads: n, UpdatePct: 100, KeyRange: 131072, MemWords: 1 << 22,
		})
		if r.Sync.TLE.Commits == 0 {
			return 0
		}
		return 100 * float64(r.Sync.TLE.CommitsAfterNoHint) / float64(r.Sync.TLE.Commits)
	})
	return p
}

// PlanFig03 reproduces Figure 3: read-only vs 2%-update workloads on
// the small AVL tree.
func PlanFig03(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig03",
		Title:  "AVL tree, keys [0,2048): 100% lookup vs 2% updates, speedup over 1 thread",
		XLabel: "threads",
		YLabel: "speedup",
	}
	for _, upd := range []int{0, 2} {
		name := "read-only"
		if upd > 0 {
			name = fmt.Sprintf("%d%% updates", upd)
		}
		speedupSeries(p, name, sc.LargeThreads, func(n int) float64 {
			return sc.thr(workload.Config{Threads: n, UpdatePct: upd, KeyRange: 2048})
		})
	}
	return p
}

// PlanFig04 reproduces Figure 4: TLE vs no synchronization on the
// search-and-replace workload (keys [0,4096)).
func PlanFig04(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig04",
		Title:  "Search-and-replace, AVL keys [0,4096): TLE vs no synchronization, speedup",
		XLabel: "threads",
		YLabel: "speedup",
	}
	for _, kind := range []workload.LockKind{workload.LockTLE, workload.LockNoSync} {
		speedupSeries(p, string(kind), sc.LargeThreads, func(n int) float64 {
			return sc.thr(workload.Config{
				Threads: n, KeyRange: 4096, SearchReplace: true, Lock: kind,
			})
		})
	}
	return p
}

// PlanFig05 reproduces Figure 5: the abort-rate breakdown for the
// Fig 4 TLE curve.
func PlanFig05(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig05",
		Title:  "Abort rate by cause for the Fig 4 TLE curve (% of attempts)",
		XLabel: "threads",
		YLabel: "percent of attempts",
	}
	for _, n := range sc.LargeThreads {
		p.Add(expt.TrialSpec{
			Key: fmt.Sprintf("breakdown/%d", n),
			Run: func() expt.Outcome {
				r := sc.run(workload.Config{Threads: n, KeyRange: 4096, SearchReplace: true})
				at := float64(r.Sync.TLE.Attempts)
				if at == 0 {
					return expt.Outcome{}
				}
				x := float64(n)
				return expt.Outcome{Points: []expt.Point{
					{Series: "total", X: x, Y: 100 * float64(r.HTM.TotalAborts()) / at},
					{Series: "conflict", X: x, Y: 100 * float64(r.Sync.TLE.Aborts[1]) / at},
					{Series: "capacity", X: x, Y: 100 * float64(r.Sync.TLE.Aborts[2]) / at},
					{Series: "lock-held", X: x, Y: 100 * float64(r.Sync.TLE.Aborts[4]) / at},
				}}
			},
		})
	}
	return p
}

// PlanFig06 reproduces Figure 6: a 36-thread single-socket run with an
// artificial delay before each commit; the x axis is the delay, the
// series are the abort rate and the conflict share of aborts.
func PlanFig06(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig06",
		Title:  "36 threads on one socket, delay before commit (AVL keys [0,131072), 100% upd)",
		XLabel: "delay (us)",
		YLabel: "percent",
		Notes: []string{
			"paper's x axis is delay-loop iterations; ours is the equivalent virtual time",
		},
	}
	for _, us := range []float64{0, 0.5, 1, 2, 4, 8, 16, 32, 43} {
		p.Add(expt.TrialSpec{
			Key: fmt.Sprintf("delay/%gus", us),
			Run: func() expt.Outcome {
				r := sc.run(workload.Config{
					Threads: 36, Pin: machine.SingleSocket{}, UpdatePct: 100,
					KeyRange: 131072, MemWords: 1 << 22,
					CommitDelay: vtime.Duration(us * float64(vtime.Microsecond)),
				})
				aborts := float64(r.HTM.TotalAborts())
				attempts := float64(r.HTM.Starts)
				if attempts == 0 {
					return expt.Outcome{}
				}
				conflictShare := 0.0
				if aborts > 0 {
					conflictShare = 100 * float64(r.HTM.Aborts[1]) / aborts
				}
				// The paper's footnote 1 reports the average successful
				// transaction length (~61 ns without delay, ~43 us at the
				// maximum delay).
				return expt.Outcome{Points: []expt.Point{
					{Series: "abort rate", X: us, Y: 100 * aborts / attempts},
					{Series: "conflict share of aborts", X: us, Y: conflictShare},
					{Series: "avg tx length (us)", X: us, Y: r.HTM.AvgCommitDuration().Seconds() * 1e6},
				}}
			},
		})
	}
	return p
}

// PlanFig07 reproduces Figure 7: AVL vs leaf-oriented BST with 20%
// updates and keys [0,2048).
func PlanFig07(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig07",
		Title:  "AVL vs leaf-oriented BST, 20% updates, keys [0,2048): throughput (ops/s)",
		XLabel: "threads",
		YLabel: "ops/s",
	}
	for _, kind := range []sets.Kind{sets.KindAVL, sets.KindLeafBST} {
		valueSeries(p, string(kind), sc.LargeThreads, func(n int) float64 {
			return sc.thr(workload.Config{Threads: n, UpdatePct: 20, KeyRange: 2048, SetKind: kind})
		})
	}
	return p
}

// PlanFig12 reproduces Figure 12: TLE vs NATLE on the AVL tree (keys
// [0,2048)) for 0/20/100% updates, without and with external work.
func PlanFig12(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig12",
		Title:  "AVL keys [0,2048): TLE vs NATLE, ops/s (panels: upd% x external work)",
		XLabel: "threads",
		YLabel: "ops/s",
	}
	for _, work := range []int{0, 256} {
		for _, upd := range []int{0, 20, 100} {
			for _, kind := range []workload.LockKind{workload.LockTLE, workload.LockNATLE} {
				name := fmt.Sprintf("%s/upd%d/work%d", kind, upd, work)
				valueSeries(p, name, sc.LargeThreads, func(n int) float64 {
					return sc.thr(workload.Config{
						Threads: n, UpdatePct: upd, KeyRange: 2048,
						ExternalWork: work, Lock: kind,
					})
				})
			}
		}
	}
	return p
}

// PlanFig13 reproduces Figure 13: unbalanced BSTs and skip-lists with
// external work (keys [0,2048)).
func PlanFig13(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig13",
		Title:  "Leaf-oriented BST and skip-list, keys [0,2048), external work: ops/s",
		XLabel: "threads",
		YLabel: "ops/s",
	}
	for _, kind := range []sets.Kind{sets.KindLeafBST, sets.KindSkipList} {
		for _, upd := range []int{20, 100} {
			for _, lk := range []workload.LockKind{workload.LockTLE, workload.LockNATLE} {
				name := fmt.Sprintf("%s/%s/upd%d", kind, lk, upd)
				valueSeries(p, name, sc.LargeThreads, func(n int) float64 {
					return sc.thr(workload.Config{
						Threads: n, UpdatePct: upd, KeyRange: 2048,
						SetKind: kind, ExternalWork: 256, Lock: lk,
					})
				})
			}
		}
	}
	return p
}

// PlanFig14 reproduces Figure 14: the leaf-oriented BST with a tiny
// key range [0,128), where even leaf-only updates conflict.
func PlanFig14(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig14",
		Title:  "Leaf-oriented BST, keys [0,128): ops/s",
		XLabel: "threads",
		YLabel: "ops/s",
	}
	for _, upd := range []int{40, 100} {
		for _, lk := range []workload.LockKind{workload.LockTLE, workload.LockNATLE} {
			name := fmt.Sprintf("%s/upd%d", lk, upd)
			valueSeries(p, name, sc.LargeThreads, func(n int) float64 {
				return sc.thr(workload.Config{
					Threads: n, UpdatePct: upd, KeyRange: 128,
					SetKind: sets.KindLeafBST, ExternalWork: 256, Lock: lk,
				})
			})
		}
	}
	return p
}

// PlanFig15 reproduces Figure 15: alternative pinning policies
// (alternating sockets, and unpinned under the simulated OS scheduler)
// for the 100%-update AVL workload with external work.
func PlanFig15(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig15",
		Title:  "AVL keys [0,2048), 100% upd, external work: pinning policies, ops/s",
		XLabel: "threads",
		YLabel: "ops/s",
	}
	for _, pin := range []machine.PinPolicy{machine.Alternating{}, machine.Unpinned{}} {
		for _, lk := range []workload.LockKind{workload.LockTLE, workload.LockNATLE} {
			name := fmt.Sprintf("%s/%s", pin.Name(), lk)
			valueSeries(p, name, sc.LargeThreads, func(n int) float64 {
				return sc.thr(workload.Config{
					Threads: n, Pin: pin, UpdatePct: 100, KeyRange: 2048,
					ExternalWork: 256, Lock: lk,
				})
			})
		}
	}
	return p
}

// PlanFig16 reproduces Figure 16: two AVL trees, one update-only and
// one search-only, with combined and per-tree throughput.
func PlanFig16(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig16",
		Title:  "Two AVL trees (update-only + search-only), keys [0,2048): ops/s",
		XLabel: "threads",
		YLabel: "ops/s",
	}
	for _, lk := range []workload.LockKind{workload.LockTLE, workload.LockNATLE} {
		for _, n := range sc.LargeThreads {
			if n%2 == 1 {
				continue // the paper runs even thread counts only
			}
			p.Add(expt.TrialSpec{
				Key: fmt.Sprintf("%s/%d", lk, n),
				Run: func() expt.Outcome {
					r := sc.run(workload.Config{
						Threads: n, Workload: workload.BackendTwoTrees,
						KeyRange: 2048, SearchWork: 256, Lock: lk,
					})
					x := float64(n)
					return expt.Outcome{Points: []expt.Point{
						{Series: string(lk) + "/combined", X: x, Y: r.Throughput()},
						{Series: string(lk) + "/updates", X: x, Y: r.LockThroughput(0)},
						{Series: string(lk) + "/searches", X: x, Y: r.LockThroughput(1)},
					}}
				},
			})
		}
	}
	return p
}
