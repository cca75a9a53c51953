package scheme_test

import (
	"reflect"
	"sort"
	"testing"

	"natle/internal/backend"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/scheme"
	"natle/internal/sets"
	"natle/internal/sim"
	"natle/internal/vtime"
)

// The equivalence trial: a fixed, interleaving-independent operation
// schedule applied to one shared AVL tree under every registered
// scheme. Each worker owns a disjoint key partition and executes a
// deterministic per-worker op sequence, so the final set contents are
// a pure function of the schedule — any two correct synchronization
// schemes must produce identical contents.
const (
	eqWorkers       = 4
	eqKeysPerWorker = 24
	eqOpsPerWorker  = 160
)

// eqOp returns worker tid's j-th operation: a key inside the worker's
// own partition and whether to insert (vs delete). Derived by integer
// hashing so the schedule is independent of the simulator's RNG and of
// thread interleaving.
func eqOp(tid, j int) (key int64, insert bool) {
	x := uint64(tid)*0x9e3779b97f4a7c15 + uint64(j)*0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	key = int64(tid*eqKeysPerWorker) + int64(x%eqKeysPerWorker)
	insert = x&(1<<40) != 0
	return
}

// eqExpected replays the schedule on a host map: the contents every
// scheme must converge to.
func eqExpected() []int64 {
	m := map[int64]bool{}
	for tid := 0; tid < eqWorkers; tid++ {
		for j := 0; j < eqOpsPerWorker; j++ {
			key, ins := eqOp(tid, j)
			if ins {
				m[key] = true
			} else {
				delete(m, key)
			}
		}
	}
	var keys []int64
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// eqTrial runs the schedule under desc and returns the final sorted
// contents, the machine's HTM counters, and the scheme's own counters.
// Schemes without mutual exclusion run the same schedule sequentially
// on the driver (concurrent unsynchronized updates would corrupt the
// tree, which is precisely why they are flagged Mutex=false).
func eqTrial(t *testing.T, desc *scheme.Descriptor) ([]int64, htm.Stats, scheme.Stats) {
	t.Helper()
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, eqWorkers, 1)
	sys := htm.NewSystem(e, 1<<20)
	var keys []int64
	var syncStats scheme.Stats

	e.Spawn(nil, func(c *sim.Ctx) {
		// New fails only on an unknown kind.
		set, _ := sets.New(sets.KindAVL, sys, c)
		cs := desc.New(sys, c, 0)
		work := func(w *sim.Ctx, tid int) {
			for j := 0; j < eqOpsPerWorker; j++ {
				key, ins := eqOp(tid, j)
				if ins {
					cs.Critical(w, func() { set.Insert(w, key) })
				} else {
					cs.Critical(w, func() { set.Delete(w, key) })
				}
			}
		}
		if desc.Mutex {
			for i := 0; i < eqWorkers; i++ {
				tid := i
				e.Spawn(c, func(w *sim.Ctx) { work(w, tid) })
			}
			c.SetIdle(true)
			c.WaitOthers(vtime.Microsecond)
		} else {
			for tid := 0; tid < eqWorkers; tid++ {
				work(c, tid)
			}
		}
		if err := set.CheckInvariants(); err != nil {
			t.Errorf("%s: tree invariants violated: %v", desc.Name, err)
		}
		keys = set.Keys()
		syncStats = cs.Stats()
	})
	e.Run()
	return keys, sys.Stats, syncStats
}

// TestSchemesAreEquivalent is the registry's drop-in-replacement claim
// as a test: every scheme, core or extension, must drive the shared
// set to the same final contents on the same schedule, and the
// machine's transaction accounting must balance for each.
func TestSchemesAreEquivalent(t *testing.T) {
	want := eqExpected()
	if len(want) == 0 {
		t.Fatal("degenerate schedule: expected contents are empty")
	}
	for _, desc := range scheme.AllFor(backend.Sim) {
		desc := desc
		t.Run(desc.Name, func(t *testing.T) {
			keys, hs, ss := eqTrial(t, desc)
			if !reflect.DeepEqual(keys, want) {
				t.Errorf("final contents diverge: got %d keys, want %d\n got: %v\nwant: %v",
					len(keys), len(want), keys, want)
			}
			if hs.Starts != hs.Commits+hs.TotalAborts() {
				t.Errorf("HTM accounting broken: %d starts != %d commits + %d aborts",
					hs.Starts, hs.Commits, hs.TotalAborts())
			}
			if ops := ss.TLE.Ops; ops > 0 && ops != ss.TLE.Commits+ss.TLE.Fallbacks {
				t.Errorf("TLE accounting broken: %d ops != %d commits + %d fallbacks",
					ops, ss.TLE.Commits, ss.TLE.Fallbacks)
			}
		})
	}
}

// TestEquivalenceTrialIsDeterministic guards the trial itself: the
// same scheme twice must give byte-identical HTM counters, otherwise
// the equivalence assertions above would be flaky by construction.
func TestEquivalenceTrialIsDeterministic(t *testing.T) {
	desc, err := scheme.Lookup("tle")
	if err != nil {
		t.Fatal(err)
	}
	k1, h1, _ := eqTrial(t, desc)
	k2, h2, _ := eqTrial(t, desc)
	if !reflect.DeepEqual(k1, k2) || h1 != h2 {
		t.Error("identical trials diverged")
	}
}
