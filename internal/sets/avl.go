package sets

import (
	"fmt"

	"natle/internal/arena"
)

// AVL node layout: one cache line per node.
const (
	avlKey    = 0 // int64
	avlLeft   = 1 // node address
	avlRight  = 2 // node address
	avlHeight = 3 // int64 (leaf = 1)
	avlWords  = 4
)

func avlKeyOf[M arena.Mem](m M, n uint64) int64   { return int64(m.Load(n + avlKey)) }
func avlLeftOf[M arena.Mem](m M, n uint64) uint64 { return m.Load(n + avlLeft) }
func avlRightOf[M arena.Mem](m M, n uint64) uint64 {
	return m.Load(n + avlRight)
}

func avlHeightOf[M arena.Mem](m M, n uint64) int64 {
	if n == arena.Nil {
		return 0
	}
	return int64(m.Load(n + avlHeight))
}

func avlContains[M arena.Mem](m M, root uint64, key int64) bool {
	n := m.Load(root)
	for n != arena.Nil {
		k := avlKeyOf(m, n)
		switch {
		case key == k:
			return true
		case key < k:
			n = avlLeftOf(m, n)
		default:
			n = avlRightOf(m, n)
		}
	}
	return false
}

func avlSearchReplace[M arena.Mem](m M, root uint64, key int64) {
	n := m.Load(root)
	last := arena.Nil
	for n != arena.Nil {
		last = n
		k := avlKeyOf(m, n)
		if key == k {
			break
		}
		if key < k {
			n = avlLeftOf(m, n)
		} else {
			n = avlRightOf(m, n)
		}
	}
	if last != arena.Nil {
		m.Store(last+avlKey, uint64(avlKeyOf(m, last)))
	}
}

func avlInsert[M arena.Mem](m M, root uint64, key int64) bool {
	var stack [64]uint64
	depth := 0
	n := m.Load(root)
	for n != arena.Nil {
		stack[depth] = n
		depth++
		k := avlKeyOf(m, n)
		if key == k {
			return false
		}
		if key < k {
			n = avlLeftOf(m, n)
		} else {
			n = avlRightOf(m, n)
		}
	}
	nn := m.Alloc(avlWords)
	m.Store(nn+avlKey, uint64(key))
	m.Store(nn+avlHeight, 1)
	if depth == 0 {
		m.Store(root, nn)
		return true
	}
	p := stack[depth-1]
	if key < avlKeyOf(m, p) {
		m.Store(p+avlLeft, nn)
	} else {
		m.Store(p+avlRight, nn)
	}
	avlRebalance(m, root, stack[:depth])
	return true
}

func avlDelete[M arena.Mem](m M, root uint64, key int64) bool {
	var stack [64]uint64
	depth := 0
	n := m.Load(root)
	for n != arena.Nil {
		stack[depth] = n
		depth++
		k := avlKeyOf(m, n)
		if key == k {
			break
		}
		if key < k {
			n = avlLeftOf(m, n)
		} else {
			n = avlRightOf(m, n)
		}
	}
	if n == arena.Nil {
		return false
	}
	// If n has two children, copy in the successor's key and splice
	// out the successor instead (an interior write that may touch a
	// node high in the tree).
	if avlLeftOf(m, n) != arena.Nil && avlRightOf(m, n) != arena.Nil {
		s := avlRightOf(m, n)
		stack[depth] = s
		depth++
		for {
			l := avlLeftOf(m, s)
			if l == arena.Nil {
				break
			}
			s = l
			stack[depth] = s
			depth++
		}
		m.Store(n+avlKey, uint64(avlKeyOf(m, s)))
		n = s
	}
	// n now has at most one child; splice it out.
	repl := avlLeftOf(m, n)
	if repl == arena.Nil {
		repl = avlRightOf(m, n)
	}
	depth-- // pop n
	if depth == 0 {
		m.Store(root, repl)
		return true
	}
	p := stack[depth-1]
	if avlLeftOf(m, p) == n {
		m.Store(p+avlLeft, repl)
	} else {
		m.Store(p+avlRight, repl)
	}
	avlRebalance(m, root, stack[:depth])
	return true
}

// avlRebalance walks the access path bottom-up, refreshing heights and
// rotating where the balance factor exceeds one. It stops early when a
// node's height is unchanged and needs no rotation — the property that
// keeps most AVL updates near the leaves.
func avlRebalance[M arena.Mem](m M, root uint64, stack []uint64) {
	for i := len(stack) - 1; i >= 0; i-- {
		n := stack[i]
		lh := avlHeightOf(m, avlLeftOf(m, n))
		rh := avlHeightOf(m, avlRightOf(m, n))
		bf := lh - rh
		if bf > 1 || bf < -1 {
			sub := avlRotate(m, n, bf)
			if i == 0 {
				m.Store(root, sub)
			} else {
				p := stack[i-1]
				if avlLeftOf(m, p) == n {
					m.Store(p+avlLeft, sub)
				} else {
					m.Store(p+avlRight, sub)
				}
			}
			continue
		}
		nh := max64(lh, rh) + 1
		if int64(m.Load(n+avlHeight)) == nh {
			return // height unchanged: no ancestor can change
		}
		m.Store(n+avlHeight, uint64(nh))
	}
}

// avlRotate restores balance at n (bf is its balance factor) and
// returns the new subtree root with all heights fixed.
func avlRotate[M arena.Mem](m M, n uint64, bf int64) uint64 {
	if bf > 1 {
		l := avlLeftOf(m, n)
		if avlHeightOf(m, avlLeftOf(m, l)) < avlHeightOf(m, avlRightOf(m, l)) {
			m.Store(n+avlLeft, avlRotLeft(m, l))
		}
		return avlRotRight(m, n)
	}
	r := avlRightOf(m, n)
	if avlHeightOf(m, avlRightOf(m, r)) < avlHeightOf(m, avlLeftOf(m, r)) {
		m.Store(n+avlRight, avlRotRight(m, r))
	}
	return avlRotLeft(m, n)
}

func avlFixHeight[M arena.Mem](m M, n uint64) {
	h := max64(avlHeightOf(m, avlLeftOf(m, n)), avlHeightOf(m, avlRightOf(m, n))) + 1
	if int64(m.Load(n+avlHeight)) != h {
		m.Store(n+avlHeight, uint64(h))
	}
}

func avlRotRight[M arena.Mem](m M, n uint64) uint64 {
	l := avlLeftOf(m, n)
	m.Store(n+avlLeft, avlRightOf(m, l))
	avlFixHeight(m, n)
	m.Store(l+avlRight, n)
	avlFixHeight(m, l)
	return l
}

func avlRotLeft[M arena.Mem](m M, n uint64) uint64 {
	r := avlRightOf(m, n)
	m.Store(n+avlRight, avlLeftOf(m, r))
	avlFixHeight(m, n)
	m.Store(r+avlLeft, n)
	avlFixHeight(m, r)
	return r
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// avlKeys is the raw in-order walk (validation only).
func avlKeys[M arena.Mem](m M, root uint64) []int64 {
	var out []int64
	var walk func(n uint64)
	walk = func(n uint64) {
		if n == arena.Nil {
			return
		}
		walk(m.Load(n + avlLeft))
		out = append(out, int64(m.Load(n+avlKey)))
		walk(m.Load(n + avlRight))
	}
	walk(m.Load(root))
	return out
}

// avlCheck validates BST ordering, correct stored heights, and balance
// factors within [-1, 1] at every node (validation only).
func avlCheck[M arena.Mem](m M, root uint64) error {
	var check func(n uint64, lo, hi int64) (int64, error)
	check = func(n uint64, lo, hi int64) (int64, error) {
		if n == arena.Nil {
			return 0, nil
		}
		k := int64(m.Load(n + avlKey))
		if k < lo || k > hi {
			return 0, fmt.Errorf("avl: key %d outside (%d, %d)", k, lo, hi)
		}
		lh, err := check(m.Load(n+avlLeft), lo, k-1)
		if err != nil {
			return 0, err
		}
		rh, err := check(m.Load(n+avlRight), k+1, hi)
		if err != nil {
			return 0, err
		}
		h := max64(lh, rh) + 1
		if stored := int64(m.Load(n + avlHeight)); stored != h {
			return 0, fmt.Errorf("avl: node %d stored height %d, actual %d", k, stored, h)
		}
		if bf := lh - rh; bf > 1 || bf < -1 {
			return 0, fmt.Errorf("avl: node %d unbalanced (bf=%d)", k, bf)
		}
		return h, nil
	}
	_, err := check(m.Load(root), -1<<62, 1<<62)
	return err
}
