package sets

import (
	"fmt"

	"natle/internal/arena"
)

// Leaf-oriented BST node layout: one cache line per node. A node is a
// leaf iff its left child is nil (internal nodes always have exactly
// two children).
const (
	lbKey   = 0
	lbLeft  = 1
	lbRight = 2
	lbWords = 3
)

func lbKeyOf[M arena.Mem](m M, n uint64) int64    { return int64(m.Load(n + lbKey)) }
func lbLeftOf[M arena.Mem](m M, n uint64) uint64  { return m.Load(n + lbLeft) }
func lbRightOf[M arena.Mem](m M, n uint64) uint64 { return m.Load(n + lbRight) }

func lbContains[M arena.Mem](m M, root uint64, key int64) bool {
	n := m.Load(root)
	if n == arena.Nil {
		return false
	}
	for {
		l := lbLeftOf(m, n)
		if l == arena.Nil {
			return lbKeyOf(m, n) == key
		}
		if key < lbKeyOf(m, n) {
			n = l
		} else {
			n = lbRightOf(m, n)
		}
	}
}

func lbSearchReplace[M arena.Mem](m M, root uint64, key int64) {
	n := m.Load(root)
	if n == arena.Nil {
		return
	}
	for {
		l := lbLeftOf(m, n)
		if l == arena.Nil {
			m.Store(n+lbKey, uint64(lbKeyOf(m, n)))
			return
		}
		if key < lbKeyOf(m, n) {
			n = l
		} else {
			n = lbRightOf(m, n)
		}
	}
}

func lbNewLeaf[M arena.Mem](m M, key int64) uint64 {
	n := m.Alloc(lbWords)
	m.Store(n+lbKey, uint64(key))
	return n
}

func lbInsert[M arena.Mem](m M, root uint64, key int64) bool {
	n := m.Load(root)
	if n == arena.Nil {
		leaf := lbNewLeaf(m, key)
		m.Store(root, leaf)
		return true
	}
	var p uint64 // parent internal node (nil while n is the root)
	var fromLeft bool
	for {
		l := lbLeftOf(m, n)
		if l == arena.Nil {
			break
		}
		p = n
		if key < lbKeyOf(m, n) {
			fromLeft, n = true, l
		} else {
			fromLeft, n = false, lbRightOf(m, n)
		}
	}
	lk := lbKeyOf(m, n)
	if lk == key {
		return false
	}
	// Replace leaf n with an internal router over {n, new leaf}.
	nl := lbNewLeaf(m, key)
	in := m.Alloc(lbWords)
	if key < lk {
		m.Store(in+lbKey, uint64(lk))
		m.Store(in+lbLeft, nl)
		m.Store(in+lbRight, n)
	} else {
		m.Store(in+lbKey, uint64(key))
		m.Store(in+lbLeft, n)
		m.Store(in+lbRight, nl)
	}
	switch {
	case p == arena.Nil:
		m.Store(root, in)
	case fromLeft:
		m.Store(p+lbLeft, in)
	default:
		m.Store(p+lbRight, in)
	}
	return true
}

func lbDelete[M arena.Mem](m M, root uint64, key int64) bool {
	n := m.Load(root)
	if n == arena.Nil {
		return false
	}
	var g, p uint64 // grandparent, parent
	var pFromLeft, nFromLeft bool
	for {
		l := lbLeftOf(m, n)
		if l == arena.Nil {
			break
		}
		g, pFromLeft = p, nFromLeft
		p = n
		if key < lbKeyOf(m, n) {
			nFromLeft, n = true, l
		} else {
			nFromLeft, n = false, lbRightOf(m, n)
		}
	}
	if lbKeyOf(m, n) != key {
		return false
	}
	if p == arena.Nil { // n was the root leaf
		m.Store(root, arena.Nil)
		return true
	}
	sibling := lbRightOf(m, p)
	if !nFromLeft {
		sibling = lbLeftOf(m, p)
	}
	switch {
	case g == arena.Nil:
		m.Store(root, sibling)
	case pFromLeft:
		m.Store(g+lbLeft, sibling)
	default:
		m.Store(g+lbRight, sibling)
	}
	return true
}

// lbKeys is the raw in-order walk of leaves (validation only).
func lbKeys[M arena.Mem](m M, root uint64) []int64 {
	var out []int64
	var walk func(n uint64)
	walk = func(n uint64) {
		if n == arena.Nil {
			return
		}
		l := m.Load(n + lbLeft)
		if l == arena.Nil {
			out = append(out, int64(m.Load(n+lbKey)))
			return
		}
		walk(l)
		walk(m.Load(n + lbRight))
	}
	walk(m.Load(root))
	return out
}

// lbCheck validates: internal nodes have two children, left subtrees
// hold keys < router, right subtrees keys >= router (validation only).
func lbCheck[M arena.Mem](m M, root uint64) error {
	var check func(n uint64, lo, hi int64) error
	check = func(n uint64, lo, hi int64) error {
		if n == arena.Nil {
			return nil
		}
		k := int64(m.Load(n + lbKey))
		l := m.Load(n + lbLeft)
		r := m.Load(n + lbRight)
		if l == arena.Nil {
			if r != arena.Nil {
				return fmt.Errorf("leafbst: half-internal node %d", k)
			}
			if k < lo || k >= hi {
				return fmt.Errorf("leafbst: leaf %d outside [%d, %d)", k, lo, hi)
			}
			return nil
		}
		if r == arena.Nil {
			return fmt.Errorf("leafbst: internal node %d missing right child", k)
		}
		if k < lo || k > hi {
			return fmt.Errorf("leafbst: router %d outside [%d, %d]", k, lo, hi)
		}
		if err := check(l, lo, k); err != nil {
			return err
		}
		return check(r, k, hi)
	}
	return check(m.Load(root), -1<<62, 1<<62)
}
