package workload

import (
	"fmt"

	"natle/internal/backend"
	"natle/internal/scheme"
	"natle/internal/sets"
	"natle/internal/sim"
	"natle/internal/vtime"
)

// TwoTreesConfig describes the paper's Figure 16 experiment: two AVL
// trees, each protected by its own lock; half the threads run 100%
// updates on tree U, the other half run 100% lookups (with extra
// external work to equalize single-thread op cost) on tree S. Threads
// are pinned so each socket hosts equal numbers from both groups.
type TwoTreesConfig struct {
	// Base gives machine, pinning, lock kind, seeds and durations;
	// Warmup counts from the one start line of both groups, as in Run.
	// Its Recorder and Fault are installed as in Run; the caller reads
	// the collector itself, and the result carries no fault counts.
	Base Config

	// SearchWork is the external-work iteration count added to each
	// search operation so the two groups have comparable single-thread
	// throughput (the paper adds work because searches are much
	// cheaper than updates).
	SearchWork int
}

// TwoTreesResult reports combined and per-group throughput.
type TwoTreesResult struct {
	UpdateOps uint64 // operations completed on the update-only tree
	SearchOps uint64 // operations completed on the search-only tree
	Duration  vtime.Duration

	UpdateSync scheme.Stats // scheme counters for the update tree's lock
	SearchSync scheme.Stats // scheme counters for the search tree's lock
}

// CombinedThroughput returns total operations per virtual second.
func (r *TwoTreesResult) CombinedThroughput() float64 {
	return float64(r.UpdateOps+r.SearchOps) / r.Duration.Seconds()
}

// UpdateThroughput returns the update group's operations per second.
func (r *TwoTreesResult) UpdateThroughput() float64 {
	return float64(r.UpdateOps) / r.Duration.Seconds()
}

// SearchThroughput returns the search group's operations per second.
func (r *TwoTreesResult) SearchThroughput() float64 {
	return float64(r.SearchOps) / r.Duration.Seconds()
}

// RunTwoTrees executes the Figure 16 experiment. Thread i updates tree
// U when i is even and searches tree S when i is odd; under the
// paper's fill-socket-first pinning with an even thread count this
// splits each socket's threads equally between the groups.
func RunTwoTrees(cfg TwoTreesConfig) *TwoTreesResult {
	base := cfg.Base
	base.defaults()
	e := sim.New(base.Prof, base.Pin, base.Threads, base.Seed)
	sys, _ := newSystem(e, base)
	res := &TwoTreesResult{Duration: base.Duration}

	desc, err := scheme.LookupFor(backend.Sim, string(base.Lock))
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	desc = desc.Configure(scheme.Options{TLE: base.TLE, NATLE: base.NATLE})

	e.Spawn(nil, func(c *sim.Ctx) {
		// New fails only on an unknown kind.
		updTree, _ := sets.New(sets.KindAVL, sys, c)
		schTree, _ := sets.New(sets.KindAVL, sys, c)
		// Per-lock independence is the point of the experiment: each
		// tree gets its own instance of the same scheme.
		updLock := desc.New(sys, c, 0)
		schLock := desc.New(sys, c, 0)

		sets.Prefill(updTree, c, base.KeyRange)
		sets.Prefill(schTree, c, base.KeyRange)

		var measureStart, deadline vtime.Time
		start := e.SpawnTeam(c, base.Threads, func(i int, w *sim.Ctx) {
			var counted uint64
			// Bodies built once per worker, as in Run.
			var key int64
			insert := func() { updTree.Insert(w, key) }
			remove := func() { updTree.Delete(w, key) }
			contains := func() { schTree.Contains(w, key) }
			for {
				opStart := w.Now()
				if opStart >= deadline {
					break
				}
				key = int64(w.Rand64() % uint64(base.KeyRange))
				if i%2 == 0 {
					if w.Rand64()&1 == 0 {
						updLock.Critical(w, insert)
					} else {
						updLock.Critical(w, remove)
					}
				} else {
					schLock.Critical(w, contains)
					if cfg.SearchWork > 0 {
						w.Work(w.Intn(cfg.SearchWork))
					}
				}
				if opStart >= measureStart && w.Now() <= deadline {
					counted++
				}
			}
			if i%2 == 0 {
				res.UpdateOps += counted
			} else {
				res.SearchOps += counted
			}
		})
		measureStart = start.Add(base.Warmup)
		deadline = measureStart.Add(base.Duration)
		c.SetIdle(true)
		c.WaitOthers(2 * vtime.Microsecond)
		res.UpdateSync = updLock.Stats()
		res.SearchSync = schLock.Stats()
	})
	e.Run()
	return res
}
