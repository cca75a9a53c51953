package stamp

import (
	"testing"

	"natle/internal/fault"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/natle"
	"natle/internal/sim"
	"natle/internal/tle"
	"natle/internal/vtime"
)

// TestBodiesEndOnZeros injects a spurious abort at 5% of transactional
// accesses, so that attempts die at every kind of access and their
// bodies run on to their end with every read returning 0. Every
// benchmark must still finish without a panic and pass its Validate
// (run panics otherwise).
func TestBodiesEndOnZeros(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			b, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Prof: machine.LargeX52(), Pin: machine.FillSocketFirst{},
				Threads: 4, Seed: 1, Lock: "tle", TLE: tle.TLE20()}
			sys := htm.NewSystem(sim.New(cfg.Prof, cfg.Pin, cfg.Threads, cfg.Seed), 1<<22)
			sys.SetInjector(fault.New(fault.Profile{SpuriousAbortRate: 0.05}, cfg.Seed))
			r := run(b, cfg, sys)
			t.Log(r.HTM)
			if r.HTM.TotalAborts() == 0 {
				t.Errorf("%s: no attempt aborted (%v)", name, r.HTM)
			}
		})
	}
}

func TestAllBenchmarksValidateSingleThread(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			r := Run(b, Config{Threads: 1, Seed: 1, Lock: "tle"})
			if r.Runtime <= 0 {
				t.Errorf("%s: non-positive runtime %v", name, r.Runtime)
			}
			if r.HTM.Commits == 0 {
				t.Errorf("%s: no transactions committed", name)
			}
		})
	}
}

func TestAllBenchmarksValidateMultiThread(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			// Validation runs inside Run and panics on failure.
			r := Run(b, Config{Threads: 24, Seed: 2, Lock: "tle"})
			if r.Runtime <= 0 {
				t.Errorf("%s: non-positive runtime %v", name, r.Runtime)
			}
		})
	}
}

func TestMultiThreadSpeedsUpScalableBenchmarks(t *testing.T) {
	for _, name := range []string{"ssca2", "genome", "vacation-low"} {
		b1, _ := New(name)
		r1 := Run(b1, Config{Threads: 1, Seed: 3, Lock: "tle"})
		b2, _ := New(name)
		r2 := Run(b2, Config{Threads: 18, Seed: 3, Lock: "tle"})
		if r2.Runtime >= r1.Runtime {
			t.Errorf("%s: 18 threads (%v) not faster than 1 (%v)", name, r2.Runtime, r1.Runtime)
		}
	}
}

func TestNATLERunsAllBenchmarks(t *testing.T) {
	ncfg := natle.DefaultConfig()
	ncfg.ProfilingLen = 30 * vtime.Microsecond
	ncfg.QuantumLen = 30 * vtime.Microsecond
	ncfg.WarmupThreshold = 32
	for _, name := range Names() {
		b, _ := New(name)
		r := Run(b, Config{Threads: 8, Seed: 5, Lock: "natle", NATLE: &ncfg})
		if r.Runtime <= 0 {
			t.Errorf("%s under NATLE: runtime %v", name, r.Runtime)
		}
	}
}

func TestLabyrinthOverflowsCapacity(t *testing.T) {
	// 24 threads co-schedule hyperthread siblings, halving transaction
	// capacity: labyrinth's long routing write-sets must overflow or
	// exhaust their retry budget. (Fewer threads no longer trigger
	// either reliably: capped exponential backoff desynchronizes the
	// retry herds that used to exhaust the attempt budget.)
	b, _ := New("labyrinth")
	r := Run(b, Config{Threads: 24, Seed: 7, Lock: "tle"})
	if r.Sync.TLE.Aborts[2] == 0 && r.Sync.TLE.Fallbacks == 0 {
		t.Error("labyrinth should overflow HTM capacity or fall back; it did neither")
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := New("nonesuch"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestShareCoversAll(t *testing.T) {
	for _, total := range []int{0, 1, 7, 64, 1000} {
		for _, threads := range []int{1, 3, 7, 72} {
			covered := 0
			prevHi := 0
			for tid := 0; tid < threads; tid++ {
				lo, hi := share(total, threads, tid)
				if lo != prevHi {
					t.Fatalf("share(%d,%d,%d): gap at %d", total, threads, tid, lo)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != total {
				t.Fatalf("share(%d,%d): covered %d", total, threads, covered)
			}
		}
	}
}

func TestBarrier(t *testing.T) {
	// Exercised heavily through kmeans/genome; a direct check that a
	// barrier round-trips its generation counter.
	b := NewBarrier(1)
	b.Wait(nil) // n=1 never blocks, ctx unused
	if b.gen != 1 {
		t.Errorf("gen = %d, want 1", b.gen)
	}
}
