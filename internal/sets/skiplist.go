package sets

import (
	"fmt"

	"natle/internal/arena"
)

// Skip-list node layout: [key, level, next_0 .. next_{level-1}];
// allocation is padded to whole cache lines by the allocator.
const (
	slKey   = 0
	slLevel = 1
	slNext  = 2 // first next pointer

	slMaxLevel = 16
)

// The skip-list cores take the sentinel head node's address directly
// (the head has a full-height tower), not a root-pointer word.

func slKeyOf[M arena.Mem](m M, n uint64) int64 { return int64(m.Load(n + slKey)) }
func slNextOf[M arena.Mem](m M, n uint64, lvl int) uint64 {
	return m.Load(n + slNext + uint64(lvl))
}
func slSetNext[M arena.Mem](m M, n uint64, lvl int, v uint64) {
	m.Store(n+slNext+uint64(lvl), v)
}

// slFindPreds fills update with the predecessor of key at every level
// and returns the bottom-level candidate node (the first node with
// key >= target, or nil).
func slFindPreds[M arena.Mem](m M, head uint64, key int64, update *[slMaxLevel]uint64) uint64 {
	x := head
	for i := slMaxLevel - 1; i >= 0; i-- {
		for {
			nx := slNextOf(m, x, i)
			if nx == arena.Nil || slKeyOf(m, nx) >= key {
				break
			}
			x = nx
		}
		update[i] = x
	}
	return slNextOf(m, update[0], 0)
}

func slContains[M arena.Mem](m M, head uint64, key int64) bool {
	x := head
	for i := slMaxLevel - 1; i >= 0; i-- {
		for {
			nx := slNextOf(m, x, i)
			if nx == arena.Nil || slKeyOf(m, nx) > key {
				break
			}
			if slKeyOf(m, nx) == key {
				return true
			}
			x = nx
		}
	}
	return false
}

func slSearchReplace[M arena.Mem](m M, head uint64, key int64) {
	var update [slMaxLevel]uint64
	cand := slFindPreds(m, head, key, &update)
	last := cand
	if last == arena.Nil {
		last = update[0]
	}
	if last == head {
		return
	}
	m.Store(last+slKey, uint64(slKeyOf(m, last)))
}

// slRandLevel draws a geometric tower height (p = 1/2) from the
// per-thread stream. The draws happen only after the candidate-absent
// check in slInsert, so present-key operations consume no random bits —
// the property that keeps cross-backend schedules aligned.
func slRandLevel[M arena.Mem](m M) int {
	lvl := 1
	for lvl < slMaxLevel && m.Rand64()&1 == 0 {
		lvl++
	}
	return lvl
}

func slInsert[M arena.Mem](m M, head uint64, key int64) bool {
	var update [slMaxLevel]uint64
	cand := slFindPreds(m, head, key, &update)
	if cand != arena.Nil && slKeyOf(m, cand) == key {
		return false
	}
	lvl := slRandLevel(m)
	n := m.Alloc(slNext + lvl)
	m.Store(n+slKey, uint64(key))
	m.Store(n+slLevel, uint64(lvl))
	for i := 0; i < lvl; i++ {
		slSetNext(m, n, i, slNextOf(m, update[i], i))
		slSetNext(m, update[i], i, n)
	}
	return true
}

func slDelete[M arena.Mem](m M, head uint64, key int64) bool {
	var update [slMaxLevel]uint64
	cand := slFindPreds(m, head, key, &update)
	if cand == arena.Nil || slKeyOf(m, cand) != key {
		return false
	}
	lvl := int(m.Load(cand + slLevel))
	for i := 0; i < lvl; i++ {
		if slNextOf(m, update[i], i) == cand {
			slSetNext(m, update[i], i, slNextOf(m, cand, i))
		}
	}
	return true
}

// slKeys is the raw bottom-level walk (validation only).
func slKeys[M arena.Mem](m M, head uint64) []int64 {
	var out []int64
	n := m.Load(head + slNext)
	for n != arena.Nil {
		out = append(out, int64(m.Load(n+slKey)))
		n = m.Load(n + slNext)
	}
	return out
}

// slCheck validates: each level is sorted and a subsequence of the
// level below (validation only).
func slCheck[M arena.Mem](m M, head uint64) error {
	inLevel0 := map[uint64]bool{}
	prev := int64(-1 << 62)
	for n := m.Load(head + slNext); n != arena.Nil; n = m.Load(n + slNext) {
		k := int64(m.Load(n + slKey))
		if k <= prev {
			return fmt.Errorf("skiplist: level 0 not strictly sorted at %d", k)
		}
		prev = k
		inLevel0[n] = true
	}
	for i := 1; i < slMaxLevel; i++ {
		prev = -1 << 62
		for n := m.Load(head + slNext + uint64(i)); n != arena.Nil; n = m.Load(n + slNext + uint64(i)) {
			if !inLevel0[n] {
				return fmt.Errorf("skiplist: level %d node missing from level 0", i)
			}
			if lvl := int(m.Load(n + slLevel)); lvl <= i {
				return fmt.Errorf("skiplist: node linked above its level (%d <= %d)", lvl, i)
			}
			k := int64(m.Load(n + slKey))
			if k <= prev {
				return fmt.Errorf("skiplist: level %d not sorted at %d", i, k)
			}
			prev = k
		}
	}
	return nil
}
