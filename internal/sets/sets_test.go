package sets

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"natle/internal/arena"
	"natle/internal/backend"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/native"
	"natle/internal/sim"
)

// frontEnd is one set front end under the model check, bound to one
// live set: its operations and its validation walks.
type frontEnd struct {
	name                     string
	insert, remove, contains func(key int64) bool
	keys                     func() []int64
	check                    func() error
}

// runModelCheck executes one random operation sequence against each
// front end — Set on the simulator, and BackendSet on one goroutine of
// a native world — verifying every result, the structural invariants
// every 64 operations, and the final contents against a Go map model.
func runModelCheck(t *testing.T, kind Kind, seed int64, ops int, keyRange int64) bool {
	t.Helper()
	ok := true
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 1, seed)
	sys := htm.NewSystem(e, 1<<16)
	e.Spawn(nil, func(c *sim.Ctx) {
		set, err := New(kind, sys, c)
		if err != nil {
			t.Error(err)
			ok = false
			return
		}
		ok = checkAgainstModel(t, frontEnd{
			name:     "sim/" + string(kind),
			insert:   func(key int64) bool { return set.Insert(c, key) },
			remove:   func(key int64) bool { return set.Delete(c, key) },
			contains: func(key int64) bool { return set.Contains(c, key) },
			keys:     set.Keys,
			check:    set.CheckInvariants,
		}, seed, ops, keyRange)
	})
	e.Run()

	laneWords := ops * InsertWords(kind)
	w := native.NewWorld(native.Config{Words: 4 * laneWords, Seed: seed})
	var set *BackendSet
	w.Run(1, func(c backend.Ctx) {
		var err error
		if set, err = NewBackendSet(kind, c, arena.New(c, 2, laneWords)); err != nil {
			t.Error(err)
		}
	}, func(c backend.Ctx) {
		if set == nil {
			ok = false
			return
		}
		ok = checkAgainstModel(t, frontEnd{
			name:     "backend/" + string(kind),
			insert:   func(key int64) bool { return set.Insert(c, key) },
			remove:   func(key int64) bool { return set.Delete(c, key) },
			contains: func(key int64) bool { return set.Contains(c, key) },
			keys:     func() []int64 { return set.Keys(w) },
			check:    func() error { return set.CheckInvariants(w) },
		}, seed, ops, keyRange) && ok
	})
	return ok
}

// checkAgainstModel runs ops random inserts, deletes and lookups of keys
// in [0, keyRange), drawn from seed, on s and on a map model, and
// reports whether s agreed with the model throughout.
func checkAgainstModel(t *testing.T, s frontEnd, seed int64, ops int, keyRange int64) bool {
	t.Helper()
	model := map[int64]bool{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		key := rng.Int63n(keyRange)
		switch rng.Intn(4) {
		case 0, 1:
			want := !model[key]
			if got := s.insert(key); got != want {
				t.Errorf("%s: Insert(%d) = %v, want %v (op %d)", s.name, key, got, want, i)
				return false
			}
			model[key] = true
		case 2:
			want := model[key]
			if got := s.remove(key); got != want {
				t.Errorf("%s: Delete(%d) = %v, want %v (op %d)", s.name, key, got, want, i)
				return false
			}
			delete(model, key)
		case 3:
			want := model[key]
			if got := s.contains(key); got != want {
				t.Errorf("%s: Contains(%d) = %v, want %v (op %d)", s.name, key, got, want, i)
				return false
			}
		}
		if i%64 == 0 {
			if err := s.check(); err != nil {
				t.Errorf("%s: invariant violated after op %d: %v", s.name, i, err)
				return false
			}
		}
	}
	if err := s.check(); err != nil {
		t.Errorf("%s: final invariant: %v", s.name, err)
		return false
	}
	var want []int64
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := s.keys()
	if len(got) != len(want) {
		t.Errorf("%s: %d keys, want %d", s.name, len(got), len(want))
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: keys[%d] = %d, want %d", s.name, i, got[i], want[i])
			return false
		}
	}
	return true
}

func TestSetsAgainstModel(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			// A seeded generator keeps the property-test inputs (and
			// therefore the simulated schedules) identical run to run;
			// quick's default draws from the wall clock.
			cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(1))}
			f := func(seed int64) bool {
				return runModelCheck(t, kind, seed, 600, 64)
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSetsLargeKeyRange(t *testing.T) {
	for _, kind := range Kinds() {
		if !runModelCheck(t, kind, 99, 3000, 4096) {
			t.Errorf("%s failed large-range model check", kind)
		}
	}
}

func TestPrefillHalfFills(t *testing.T) {
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 1, 5)
	s := htm.NewSystem(e, 1<<16)
	e.Spawn(nil, func(c *sim.Ctx) {
		// New fails only on an unknown kind.
		set, _ := New(KindAVL, s, c)
		Prefill(set, c, 2048)
		if n := len(set.Keys()); n != 1024 {
			t.Errorf("prefill produced %d keys, want 1024", n)
		}
		if err := set.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
	e.Run()
}

func TestSearchReplacePreservesContents(t *testing.T) {
	for _, kind := range Kinds() {
		e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 1, 7)
		s := htm.NewSystem(e, 1<<16)
		e.Spawn(nil, func(c *sim.Ctx) {
			set, _ := New(kind, s, c)
			for k := int64(0); k < 128; k += 2 {
				set.Insert(c, k)
			}
			before := set.Keys()
			for i := 0; i < 500; i++ {
				set.SearchReplace(c, int64(c.Intn(128)))
			}
			after := set.Keys()
			if len(before) != len(after) {
				t.Errorf("%s: SearchReplace changed size: %d -> %d", kind, len(before), len(after))
				return
			}
			for i := range before {
				if before[i] != after[i] {
					t.Errorf("%s: SearchReplace changed contents at %d", kind, i)
					return
				}
			}
			if err := set.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", kind, err)
			}
		})
		e.Run()
	}
}

func TestAVLStaysLogarithmic(t *testing.T) {
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 1, 11)
	s := htm.NewSystem(e, 1<<20)
	e.Spawn(nil, func(c *sim.Ctx) {
		// New fails only on an unknown kind.
		set, _ := New(KindAVL, s, c)
		for k := int64(0); k < 4096; k++ { // adversarial sorted insert
			set.Insert(c, k)
		}
		if err := set.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Height is stored at the root; for n=4096, AVL height <= 1.44*log2(n) ~ 17.
		root := set.Keys()
		if len(root) != 4096 {
			t.Fatalf("size = %d, want 4096", len(root))
		}
	})
	e.Run()
}
