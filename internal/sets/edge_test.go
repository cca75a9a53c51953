package sets

import (
	"testing"

	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/sim"
)

// withSet runs f on a fresh instance of the given kind.
func withSet(t *testing.T, kind Kind, f func(c *sim.Ctx, s *Set)) {
	t.Helper()
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 1, 23)
	sys := htm.NewSystem(e, 1<<16)
	e.Spawn(nil, func(c *sim.Ctx) {
		s, err := New(kind, sys, c)
		if err != nil {
			t.Fatal(err)
		}
		f(c, s)
	})
	e.Run()
}

func TestEmptySetOperations(t *testing.T) {
	for _, kind := range Kinds() {
		withSet(t, kind, func(c *sim.Ctx, s *Set) {
			if s.Contains(c, 1) {
				t.Errorf("%s: empty set contains 1", kind)
			}
			if s.Delete(c, 1) {
				t.Errorf("%s: deleted from empty set", kind)
			}
			s.SearchReplace(c, 1) // must not panic on empty
			if got := len(s.Keys()); got != 0 {
				t.Errorf("%s: %d keys in empty set", kind, got)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", kind, err)
			}
		})
	}
}

func TestSingleElementLifecycle(t *testing.T) {
	for _, kind := range Kinds() {
		withSet(t, kind, func(c *sim.Ctx, s *Set) {
			if !s.Insert(c, 7) || s.Insert(c, 7) {
				t.Errorf("%s: single insert semantics broken", kind)
			}
			if !s.Contains(c, 7) || s.Contains(c, 8) {
				t.Errorf("%s: contains wrong after one insert", kind)
			}
			if !s.Delete(c, 7) || s.Delete(c, 7) {
				t.Errorf("%s: single delete semantics broken", kind)
			}
			if s.Contains(c, 7) {
				t.Errorf("%s: key survives deletion", kind)
			}
		})
	}
}

func TestAdversarialInsertionOrders(t *testing.T) {
	const n = 512
	orders := map[string]func(i int) int64{
		"ascending":  func(i int) int64 { return int64(i) },
		"descending": func(i int) int64 { return int64(n - i) },
		"zigzag": func(i int) int64 {
			if i%2 == 0 {
				return int64(i / 2)
			}
			return int64(n - i/2)
		},
	}
	for _, kind := range Kinds() {
		for name, order := range orders {
			withSet(t, kind, func(c *sim.Ctx, s *Set) {
				for i := 0; i < n; i++ {
					s.Insert(c, order(i))
				}
				if err := s.CheckInvariants(); err != nil {
					t.Errorf("%s/%s: %v", kind, name, err)
				}
				keys := s.Keys()
				if len(keys) != n {
					t.Errorf("%s/%s: %d keys, want %d", kind, name, len(keys), n)
				}
				// Drain in the same order.
				for i := 0; i < n; i++ {
					if !s.Delete(c, order(i)) {
						t.Errorf("%s/%s: lost key %d", kind, name, order(i))
						return
					}
				}
				if len(s.Keys()) != 0 {
					t.Errorf("%s/%s: keys remain after drain", kind, name)
				}
			})
		}
	}
}

func TestDeleteRootRepeatedly(t *testing.T) {
	// Deleting the current root repeatedly exercises the two-children
	// successor path of the internal trees at maximum depth.
	for _, kind := range []Kind{KindAVL, KindBST} {
		withSet(t, kind, func(c *sim.Ctx, s *Set) {
			for i := int64(0); i < 128; i++ {
				s.Insert(c, i)
			}
			for len(s.Keys()) > 0 {
				root := s.Keys()[len(s.Keys())/2] // median ~ near the root
				if !s.Delete(c, root) {
					t.Fatalf("%s: failed to delete %d", kind, root)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
			}
		})
	}
}

func TestNegativeAndLargeKeys(t *testing.T) {
	keys := []int64{-1 << 40, -3, 0, 5, 1 << 40}
	for _, kind := range Kinds() {
		withSet(t, kind, func(c *sim.Ctx, s *Set) {
			for _, k := range keys {
				if !s.Insert(c, k) {
					t.Errorf("%s: insert %d failed", kind, k)
				}
			}
			got := s.Keys()
			for i, k := range keys {
				if got[i] != k {
					t.Errorf("%s: keys[%d] = %d, want %d", kind, i, got[i], k)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", kind, err)
			}
		})
	}
}

func TestUnknownKindRejected(t *testing.T) {
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 1, 1)
	sys := htm.NewSystem(e, 1<<10)
	e.Spawn(nil, func(c *sim.Ctx) {
		if _, err := New("btree", sys, c); err == nil {
			t.Error("expected error for unknown set kind")
		}
	})
	e.Run()
}
