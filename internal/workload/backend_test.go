package workload_test

import (
	"fmt"
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
// heap object per hundred extra operations, under every native scheme,
// fault-free and under the storm schedule, whose faults reach every
// hook of the native fault adapter. (A section body built per operation
// is one object per operation: it escapes through the Critical
// interface call.)
func TestRunBackendAllocatesNothingPerOperation(t *testing.T) {
	const short, long = 1 << 10, 1 << 13
	storm, err := fault.LookupSchedule("storm")
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range []*fault.Profile{nil, &storm.Profile} {
		for _, wl := range workload.BackendWorkloads() {
			for _, lock := range scheme.NamesFor(backend.Native) {
				cfg := workload.BackendConfig{
					Lock: lock, Workload: wl, Threads: 2, Seed: 1, KeyRange: 512, Fault: prof,
				}
				cfg.Ops = short
				_, few := nativeMallocs(cfg)
				cfg.Ops = long
				r, many := nativeMallocs(cfg)
				extra := float64(cfg.Threads * (long - short))
				if perOp := (float64(many) - float64(few)) / extra; perOp >= 0.01 {
					t.Errorf("%s/%s (faults %v): %d allocations for %d ops per thread, %d for %d: %.3f per extra operation",
						wl, lock, prof != nil, few, short, many, long, perOp)
				}
				if prof != nil && r.Fault == (fault.Stats{}) {
					t.Errorf("%s/%s: the storm schedule injected nothing", wl, lock)
				}
			}
		}
	}
}

// TestMemWordsIsTheWorkloadsOwnNeed: a world is sized by what the trial
// can touch plus fixed slack, with no floor under it (the default size
// lives in native.Config.Words <= 0 alone) — a counter trial does not
// zero eight megabytes to touch one word — and the sets bound, the only
// one that grows with the trial, still holds a trial of the default
// size.
func TestMemWordsIsTheWorkloadsOwnNeed(t *testing.T) {
	if got := (workload.BackendConfig{Workload: workload.BackendCounter, Threads: 2}).MemWords(); got >= 1<<17 {
		t.Errorf("counter: %d words, want < %d", got, 1<<17)
	}
	if got := (workload.BackendConfig{Workload: workload.BackendTwoTrees, Threads: 2, KeyRange: 2048}).MemWords(); got >= 1<<17 {
		t.Errorf("twotrees: %d words, want < %d", got, 1<<17)
	}
	// What the sets bound comes to, pinned: the most inserts either
	// worker's schedule holds (about a quarter of its operations),
	// times the node size, times three lanes.
	for kind, want := range map[sets.Kind]int{
		sets.KindAVL: 462168, sets.KindLeafBST: 858744, sets.KindSkipList: 1255320,
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

// TestMemWordsHoldsEverySetsSchedule: a sets trial whose operations
// far outnumber its keys, so that the most inserts any worker's
// schedule holds, not the prefill, sizes its arena lanes, finishes on a
// native world of exactly MemWords words under every set kind and every
// native scheme, fault-free and with attempts killed at random, and the
// same trials finish on the simulator under every robust scheme. A lane
// too small for what the trial allocates panics in arena.Alloc. Every
// run leaves the same set behind.
func TestMemWordsHoldsEverySetsSchedule(t *testing.T) {
	kill := &fault.Profile{SpuriousAbortRate: 0.02}
	for _, kind := range sets.Kinds() {
		base := workload.BackendConfig{
			Workload: workload.BackendSets, Threads: 2, Ops: 1024, Seed: 5, KeyRange: 64, Set: kind,
		}
		prefill := base
		prefill.Ops = 1
		if base.MemWords() <= prefill.MemWords() {
			t.Fatalf("sets/%s: %d words for %d ops, %d for one: the inserts do not size the lanes",
				kind, base.MemWords(), base.Ops, prefill.MemWords())
		}
		var want uint64
		var wantFrom string
		run := func(w backend.World, lock string, p *fault.Profile) {
			cfg := base
			cfg.Lock, cfg.Fault = lock, p
			from := fmt.Sprintf("sets/%s/%s/faults=%v", kind, lock, p != nil)
			r := workload.RunBackend(w, cfg)
			if r.Ops != uint64(cfg.Threads*cfg.Ops) {
				t.Errorf("%s: %d ops, want %d", from, r.Ops, cfg.Threads*cfg.Ops)
			}
			if wantFrom == "" {
				want, wantFrom = r.Check, from
			} else if r.Check != want {
				t.Errorf("%s: check %#x, %s left %#x", from, r.Check, wantFrom, want)
			}
		}
		for _, p := range []*fault.Profile{nil, kill} {
			for _, lock := range scheme.NamesFor(backend.Native) {
				run(native.NewWorld(native.Config{Seed: base.Seed, Words: base.MemWords()}), lock, p)
			}
			for _, d := range scheme.AllFor(backend.Sim) {
				if d.Mutex && d.Robust {
					run(workload.NewSimWorld(nil, nil, base.Threads, base.Seed, 0), d.Name, p)
				}
			}
		}
	}
}

// FuzzMemWords: whatever the seed, thread count (1–4), length, key
// range and set kind, a sets trial under the blocking mutex or under
// elision, whose dead attempts allocate and drop what they allocated,
// finishes its schedule on a native world of exactly MemWords words.
func FuzzMemWords(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(1024), uint16(64), uint8(0), false)
	f.Add(int64(5), uint8(3), uint16(4000), uint16(7), uint8(2), true)
	f.Add(int64(-9), uint8(0), uint16(1), uint16(0), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, threads uint8, ops, keyRange uint16, kind uint8, elide bool) {
		kinds := sets.Kinds()
		cfg := workload.BackendConfig{
			Lock: "native-mutex", Workload: workload.BackendSets, Seed: seed,
			Threads: 1 + int(threads%4), Ops: 1 + int(ops%4096), Set: kinds[int(kind)%len(kinds)],
		}
		cfg.KeyRange = max(cfg.Threads, int(keyRange%4096))
		if elide {
			cfg.Lock = "native-tle"
		}
		r := workload.RunBackend(native.NewWorld(native.Config{Seed: seed, Words: cfg.MemWords()}), cfg)
		if want := uint64(cfg.Threads * cfg.Ops); r.Ops != want {
			t.Fatalf("%+v: %d ops, want %d", cfg, r.Ops, want)
		}
	})
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
