package sets

import (
	"fmt"

	"natle/internal/arena"
)

// Internal BST node layout: one cache line per node.
const (
	ibKey   = 0
	ibLeft  = 1
	ibRight = 2
	ibWords = 3
)

// The structure cores below are generic over arena.Mem, so the same
// word-by-word access sequence runs against the simulator (arena.Sim)
// and the native backend (arena.Backend). The address passed as `root`
// is always the root-pointer word, not the root node.

func bstKey[M arena.Mem](m M, n uint64) int64 {
	return int64(m.Load(n + ibKey))
}

func bstChild[M arena.Mem](m M, n uint64, leftSide bool) uint64 {
	f := uint64(ibRight)
	if leftSide {
		f = ibLeft
	}
	return m.Load(n + f)
}

func bstContains[M arena.Mem](m M, root uint64, key int64) bool {
	n := m.Load(root)
	for n != arena.Nil {
		k := bstKey(m, n)
		if k == key {
			return true
		}
		n = bstChild(m, n, key < k)
	}
	return false
}

func bstSearchReplace[M arena.Mem](m M, root uint64, key int64) {
	n := m.Load(root)
	last := arena.Nil
	for n != arena.Nil {
		last = n
		k := bstKey(m, n)
		if k == key {
			break
		}
		n = bstChild(m, n, key < k)
	}
	if last != arena.Nil {
		m.Store(last+ibKey, uint64(bstKey(m, last)))
	}
}

func bstNewNode[M arena.Mem](m M, key int64) uint64 {
	n := m.Alloc(ibWords)
	m.Store(n+ibKey, uint64(key))
	return n
}

func bstInsert[M arena.Mem](m M, root uint64, key int64) bool {
	n := m.Load(root)
	if n == arena.Nil {
		m.Store(root, bstNewNode(m, key))
		return true
	}
	for {
		k := bstKey(m, n)
		if k == key {
			return false
		}
		next := bstChild(m, n, key < k)
		if next == arena.Nil {
			f := uint64(ibRight)
			if key < k {
				f = ibLeft
			}
			m.Store(n+f, bstNewNode(m, key))
			return true
		}
		n = next
	}
}

func bstDelete[M arena.Mem](m M, root uint64, key int64) bool {
	parent := arena.Nil
	parentLeft := false
	n := m.Load(root)
	for n != arena.Nil {
		k := bstKey(m, n)
		if k == key {
			break
		}
		parent, parentLeft = n, key < k
		n = bstChild(m, n, key < k)
	}
	if n == arena.Nil {
		return false
	}
	l, r := bstChild(m, n, true), bstChild(m, n, false)
	if l != arena.Nil && r != arena.Nil {
		// Two children: copy successor key into n, then splice out the
		// successor (leftmost node of the right subtree).
		sp, spLeft := n, false
		s := r
		for {
			sl := bstChild(m, s, true)
			if sl == arena.Nil {
				break
			}
			sp, spLeft = s, true
			s = sl
		}
		m.Store(n+ibKey, uint64(bstKey(m, s)))
		bstSplice(m, root, sp, spLeft, s)
		return true
	}
	bstSplice(m, root, parent, parentLeft, n)
	return true
}

// bstSplice removes node n (which has at most one child) from under
// parent (nil parent means n is the root).
func bstSplice[M arena.Mem](m M, root, parent uint64, parentLeft bool, n uint64) {
	repl := bstChild(m, n, true)
	if repl == arena.Nil {
		repl = bstChild(m, n, false)
	}
	switch {
	case parent == arena.Nil:
		m.Store(root, repl)
	case parentLeft:
		m.Store(parent+ibLeft, repl)
	default:
		m.Store(parent+ibRight, repl)
	}
}

// bstKeys is the raw in-order walk (validation only; call with a
// read-only adapter over a quiesced world).
func bstKeys[M arena.Mem](m M, root uint64) []int64 {
	var out []int64
	var walk func(n uint64)
	walk = func(n uint64) {
		if n == arena.Nil {
			return
		}
		walk(m.Load(n + ibLeft))
		out = append(out, int64(m.Load(n+ibKey)))
		walk(m.Load(n + ibRight))
	}
	walk(m.Load(root))
	return out
}

// bstCheck validates BST ordering (validation only).
func bstCheck[M arena.Mem](m M, root uint64) error {
	var check func(n uint64, lo, hi int64) error
	check = func(n uint64, lo, hi int64) error {
		if n == arena.Nil {
			return nil
		}
		k := int64(m.Load(n + ibKey))
		if k < lo || k > hi {
			return fmt.Errorf("bst: key %d outside (%d, %d)", k, lo, hi)
		}
		if err := check(m.Load(n+ibLeft), lo, k-1); err != nil {
			return err
		}
		return check(m.Load(n+ibRight), k+1, hi)
	}
	return check(m.Load(root), -1<<62, 1<<62)
}
