package harness

import (
	"natle/internal/cctsa"
	"natle/internal/expt"
	"natle/internal/machine"
	"natle/internal/natle"
	"natle/internal/paraheap"
	"natle/internal/stamp"
	"natle/internal/vtime"
)

// appNATLE returns the NATLE configuration used for the application
// figures: application runtimes are milliseconds (vs the paper's
// seconds), so the cycle is shortened further — while keeping the
// profiling windows wide enough for clean measurements — so several
// cycles fit within each run.
func appNATLE(sc Scale) natle.Config {
	n := sc.NATLE
	n.ProfilingLen = 150 * vtime.Microsecond
	n.QuantumLen = 50 * vtime.Microsecond
	n.WarmupThreshold = 64
	return n
}

// stampSize returns the STAMP workload multiplier for the scale (the
// full record uses larger inputs so high-thread-count runtimes span
// several NATLE cycles).
func (sc Scale) stampSize() int {
	if len(sc.LargeThreads) > 8 { // FullScale
		return 6
	}
	return 2
}

// AppThreads returns the (coarser) thread sweep used for the
// application figures, whose x axes in the paper are also coarse.
func (sc Scale) AppThreads() []int {
	if len(sc.LargeThreads) > 8 {
		return []int{1, 9, 18, 27, 36, 45, 54, 63, 72}
	}
	return sc.LargeThreads
}

// PlanFig17 reproduces Figure 17: STAMP total runtimes (milliseconds,
// lower is better) under TLE and NATLE. Pass the benchmark names to
// run (nil = all nine).
func PlanFig17(sc Scale, names []string) *expt.Plan {
	if names == nil {
		names = stamp.Names()
	}
	p := &expt.Plan{
		ID:     "fig17",
		Title:  "STAMP total runtime (virtual ms, lower is better)",
		XLabel: "threads",
		YLabel: "runtime (ms)",
	}
	for _, name := range names {
		for _, lk := range []string{"tle", "natle"} {
			series := name + "/" + lk
			valueSeries(p, series, sc.AppThreads(), func(n int) float64 {
				b, err := stamp.NewScaled(name, sc.stampSize())
				if err != nil {
					panic(err)
				}
				ncfg := appNATLE(sc)
				r := stamp.Run(b, stamp.Config{
					Threads: n, Seed: sc.Seed, Lock: lk, NATLE: &ncfg,
				})
				return float64(r.Runtime) / float64(vtime.Millisecond)
			})
		}
	}
	return p
}

// PlanFig18 reproduces Figure 18(a)/(c): ccTSA total runtime with and
// without pinning.
func PlanFig18(sc Scale, pinned bool) *expt.Plan {
	id, title := "fig18a", "ccTSA total runtime, pinned (virtual ms, lower is better)"
	if !pinned {
		id, title = "fig18c", "ccTSA total runtime, unpinned (virtual ms, lower is better)"
	}
	p := &expt.Plan{ID: id, Title: title, XLabel: "threads", YLabel: "runtime (ms)"}
	var pin machine.PinPolicy = machine.FillSocketFirst{}
	if !pinned {
		pin = machine.Unpinned{}
	}
	for _, lk := range []string{"tle", "natle"} {
		valueSeries(p, lk, sc.AppThreads(), func(n int) float64 {
			cfg := cctsa.DefaultConfig()
			// Full-scale runs use a larger genome so high-thread-count
			// runtimes span several NATLE cycles.
			cfg.GenomeLen *= sc.stampSize()
			cfg.Pin = pin
			cfg.Threads = n
			cfg.Seed = sc.Seed
			cfg.Lock = lk
			ncfg := appNATLE(sc)
			cfg.NATLE = &ncfg
			r := cctsa.Run(cfg)
			return float64(r.Runtime) / float64(vtime.Millisecond)
		})
	}
	return p
}

// PlanFig18b reproduces Figure 18(b): the share of post-profiling time
// NATLE allocates to socket 0, per cycle, in a 72-thread ccTSA run.
func PlanFig18b(sc Scale) *expt.Plan {
	p := &expt.Plan{
		ID:     "fig18b",
		Title:  "ccTSA at 72 threads: socket-0 time share per NATLE cycle",
		XLabel: "cycle",
		YLabel: "share",
	}
	p.Add(expt.TrialSpec{
		Key: "cctsa/72/timeline",
		Run: func() expt.Outcome {
			cfg := cctsa.DefaultConfig()
			cfg.GenomeLen *= sc.stampSize()
			cfg.Threads = 72
			cfg.Seed = sc.Seed
			cfg.Lock = "natle"
			ncfg := appNATLE(sc)
			cfg.NATLE = &ncfg
			r := cctsa.Run(cfg)
			var o expt.Outcome
			for _, m := range r.Sync.Timeline {
				o.Points = append(o.Points, expt.Point{
					Series: "socket-0 share", X: float64(m.Cycle), Y: m.Socket0Share,
				})
			}
			return o
		},
	})
	return p
}

// PlanFig19 reproduces Figure 19: paraheap-k total runtime with (a)
// and without (b) pinning.
func PlanFig19(sc Scale, pinned bool) *expt.Plan {
	id, title := "fig19a", "paraheap-k runtime, pinned (virtual ms, lower is better)"
	if !pinned {
		id, title = "fig19b", "paraheap-k runtime, unpinned (virtual ms, lower is better)"
	}
	p := &expt.Plan{ID: id, Title: title, XLabel: "threads", YLabel: "runtime (ms)"}
	var pin machine.PinPolicy = machine.FillSocketFirst{}
	if !pinned {
		pin = machine.Unpinned{}
	}
	threads := make([]int, 0, len(sc.AppThreads()))
	for _, n := range sc.AppThreads() {
		if n >= 1 {
			threads = append(threads, n)
		}
	}
	for _, lk := range []string{"tle", "natle"} {
		valueSeries(p, lk, threads, func(n int) float64 {
			cfg := paraheap.DefaultConfig()
			cfg.Pin = pin
			cfg.Threads = n
			cfg.Seed = sc.Seed
			cfg.Lock = lk
			ncfg := appNATLE(sc)
			cfg.NATLE = &ncfg
			r := paraheap.Run(cfg)
			return float64(r.Runtime) / float64(vtime.Millisecond)
		})
	}
	return p
}
