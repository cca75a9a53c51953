package workload_test

import (
	"runtime"
	"testing"

	"natle/internal/backend"
	"natle/internal/fault"
	"natle/internal/native"
	"natle/internal/scheme"
	"natle/internal/sets"
	"natle/internal/vtime"
	"natle/internal/workload"
)

// TestRunBackendAllocatesNothingPerOperation: whatever RunBackend
// allocates is set-up — the world's contexts and goroutines, the
// workers and their bodies, the result — and does not grow with the
// trial. Two trials that differ only in length differ by well under one
// heap object per hundred extra operations, under every native scheme.
// (A section body built per operation is one object per operation: it
// escapes through the Critical interface call.)
func TestRunBackendAllocatesNothingPerOperation(t *testing.T) {
	const short, long = 1 << 10, 1 << 13
	for _, wl := range workload.BackendWorkloads() {
		for _, lock := range scheme.NamesFor(backend.Native) {
			cfg := workload.BackendConfig{
				Lock: lock, Workload: wl, Threads: 2, Seed: 1, KeyRange: 512,
			}
			cfg.Ops = short
			_, few := nativeMallocs(cfg)
			cfg.Ops = long
			_, many := nativeMallocs(cfg)
			extra := float64(cfg.Threads * (long - short))
			if perOp := (float64(many) - float64(few)) / extra; perOp >= 0.01 {
				t.Errorf("%s/%s: %d allocations for %d ops per thread, %d for %d: %.3f per extra operation",
					wl, lock, few, short, many, long, perOp)
			}
		}
	}
}

// TestMemWordsIsTheWorkloadsOwnNeed: a world is sized by what the trial
// can touch plus fixed slack, with no floor under it (the default size
// lives in native.Config.Words <= 0 alone) — a counter trial does not
// zero eight megabytes to touch one word — and the sets bound, the only
// one that grows with the trial, still holds a trial that inserts at
// every opportunity.
func TestMemWordsIsTheWorkloadsOwnNeed(t *testing.T) {
	if got := (workload.BackendConfig{Workload: workload.BackendCounter, Threads: 2}).MemWords(); got >= 1<<17 {
		t.Errorf("counter: %d words, want < %d", got, 1<<17)
	}
	if got := (workload.BackendConfig{Workload: workload.BackendTwoTrees, Threads: 2, KeyRange: 2048}).MemWords(); got >= 1<<17 {
		t.Errorf("twotrees: %d words, want < %d", got, 1<<17)
	}
	// What the sets bound comes to, pinned: worst case times lanes.
	for kind, want := range map[sets.Kind]int{
		sets.KindAVL: 1638456, sets.KindLeafBST: 3211320, sets.KindSkipList: 4784184,
	} {
		cfg := workload.BackendConfig{Workload: workload.BackendSets, Threads: 2, Ops: 1 << 16, KeyRange: 2048, Set: kind}
		if got := cfg.MemWords(); got != want {
			t.Errorf("sets/%s: %d words, want %d", kind, got, want)
		}
	}
	// A trial of the default size, every structure (the tree kinds come
	// to less than native.Config's default): it must fit the world
	// MemWords sizes — Alloc panics on overflow — and finish its schedule.
	for _, kind := range sets.Kinds() {
		cfg := workload.BackendConfig{
			Lock: "native-tle", Workload: workload.BackendSets, Threads: 2, Seed: 3, Set: kind,
		}
		w := native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.MemWords(), Sockets: 2})
		if r := workload.RunBackend(w, cfg); r.Ops != 2<<14 {
			t.Errorf("sets/%s: %d ops, want %d", kind, r.Ops, 2<<14)
		}
	}
}

// TestSpuriousAbortsCountArmedCountdowns: fault.Stats.SpuriousAborts
// means the same on both worlds, one countdown armed per transactional
// attempt, fired or not: the count is the simulator's HTM starts and
// the native lock's commits + aborts. At rate 1 every countdown fires
// on the first access; at rate 0.5 many outlast the counter's two.
func TestSpuriousAbortsCountArmedCountdowns(t *testing.T) {
	for _, rate := range []float64{1, 0.5} {
		p := fault.Profile{SpuriousAbortRate: rate}
		cfg := workload.BackendConfig{Workload: workload.BackendCounter, Threads: 2, Ops: 256, Seed: 1, Fault: &p}

		cfg.Lock = "tle"
		sw := workload.NewSimWorld(nil, nil, cfg.Threads, cfg.Seed, 0)
		r := workload.RunBackend(sw, cfg)
		if got, want := r.Fault.SpuriousAborts, sw.Sys.Stats.Starts; got == 0 || got != want {
			t.Errorf("rate %g, sim: %d spurious aborts counted, want HTM starts = %d", rate, got, want)
		}

		cfg.Lock = "native-tle"
		r = workload.RunBackend(native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.MemWords()}), cfg)
		s := r.Sync[0].TLE
		if got, want := r.Fault.SpuriousAborts, s.Commits+s.TotalAborts(); got == 0 || got != want {
			t.Errorf("rate %g, native: %d spurious aborts counted, want commits + aborts = %d", rate, got, want)
		}
	}
}

// TestRunAllocatesNothingPerOperation is the same law for the simulated
// closed loop: two trials of Run that differ only in the length of
// their window differ by well under one heap object per hundred extra
// operations, under each of the paper's core schemes and both operation
// mixes (the unsynchronized baseline runs only the search-and-replace
// mix, which leaves the tree's shape alone).
func TestRunAllocatesNothingPerOperation(t *testing.T) {
	for _, lock := range []workload.LockKind{
		workload.LockPlain, workload.LockTLE, workload.LockNATLE, workload.LockCohort, workload.LockNoSync,
	} {
		for _, sr := range []bool{false, true} {
			if lock == workload.LockNoSync && !sr {
				continue
			}
			cfg := workload.Config{
				Threads: 8, Seed: 1, KeyRange: 512, UpdatePct: 50, SearchReplace: sr,
				Lock: lock, Warmup: 10 * vtime.Microsecond,
			}
			cfg.Duration = 100 * vtime.Microsecond
			few, fewOps := simMallocs(cfg)
			cfg.Duration = 800 * vtime.Microsecond
			many, manyOps := simMallocs(cfg)
			if manyOps <= fewOps {
				t.Fatalf("%s: %d ops in the long window, %d in the short one", lock, manyOps, fewOps)
			}
			if perOp := (float64(many) - float64(few)) / float64(manyOps-fewOps); perOp >= 0.01 {
				t.Errorf("%s (search-replace %v): %d allocations for %d ops, %d for %d: %.3f per extra operation",
					lock, sr, few, fewOps, many, manyOps, perOp)
			}
		}
	}
}

// simMallocs runs one simulated trial and returns the heap objects it
// allocated and the operations it counted.
func simMallocs(cfg workload.Config) (mallocs, ops uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := workload.Run(cfg)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, r.Ops
}
