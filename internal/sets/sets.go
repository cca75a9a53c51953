// Package sets implements the abstract-set data structures used by the
// paper's microbenchmarks — an AVL tree, an unbalanced leaf-oriented
// (external) BST, an unbalanced internal BST, and a skip-list. Each
// structure is written once, generic over arena.Mem, and runs in two
// worlds: Set keeps its nodes in simulated memory, so every access goes
// through the cache and HTM models; BackendSet carves them from an
// arena of backend words, so the same cores run on real goroutines.
//
// The implementations are sequential: in the benchmarks each operation
// runs inside a critical section protected by a single elidable lock,
// exactly as in the paper ("each implementation has a single lock that
// protects every operation"). Nodes are allocated with the
// HTM-friendly allocator (line-aligned, no false sharing).
package sets

import (
	"fmt"

	"natle/internal/arena"
	"natle/internal/htm"
	"natle/internal/sim"
)

// Kind selects a set implementation by name.
type Kind string

// Available set kinds.
const (
	// KindAVL is a height-balanced binary search tree [Adelson-Velsky
	// & Landis 1962]. Most updates touch only a few nodes near the
	// leaves, but occasional rebalances rotate interior nodes —
	// including the root — which is what makes the AVL tree the
	// paper's prime example of a NUMA-sensitive structure.
	KindAVL Kind = "avl"
	// KindLeafBST is an unbalanced leaf-oriented (external) binary
	// search tree: keys live only in leaves and internal nodes route
	// searches (key < node.key goes left, otherwise right). Updates
	// replace a leaf or an internal node just above a leaf, so writes
	// never touch the top of the tree — the structural property the
	// paper predicts (and Fig 7 confirms) makes it far less
	// NUMA-sensitive than the AVL tree.
	KindLeafBST Kind = "leafbst"
	// KindBST is a classic unbalanced internal binary search tree.
	// Unlike the AVL tree it never rotates; unlike the leaf-oriented
	// BST, deleting a node with two children copies the successor's
	// key into an interior node, so it sits between the two in NUMA
	// sensitivity.
	KindBST Kind = "bst"
	// KindSkipList is a classic skip-list [Pugh 1990] with
	// geometrically distributed tower heights (p = 1/2). Updates write
	// the predecessor towers at every level of the affected node, so
	// high towers touch widely shared nodes — its NUMA profile sits
	// between the AVL tree and the leaf-oriented BST, matching the
	// paper's Fig 13 observation.
	KindSkipList Kind = "skiplist"
)

// Set is one set on the simulator: its nodes live in simulated memory
// and every operation's accesses go through the HTM runtime.
type Set struct {
	sys  *htm.System
	kind Kind
	root uint64 // root-pointer word (sentinel head node for skiplist)
}

// New constructs an empty set of the given kind with its root pointer
// (the skip-list's head tower) homed on socket 0.
func New(kind Kind, sys *htm.System, c *sim.Ctx) (*Set, error) {
	s := &Set{sys: sys, kind: kind}
	switch kind {
	case KindAVL, KindBST, KindLeafBST:
		s.root = uint64(sys.AllocHome(c, 1, 0))
	case KindSkipList:
		head := sys.AllocHome(c, slNext+slMaxLevel, 0)
		sys.Write(c, head+slLevel, slMaxLevel)
		s.root = uint64(head)
	default:
		return nil, fmt.Errorf("sets: unknown kind %q", kind)
	}
	return s, nil
}

// Insert adds key; it reports whether the key was absent.
func (s *Set) Insert(c *sim.Ctx, key int64) bool {
	return insert(arena.Sim{Sys: s.sys, C: c}, s.kind, s.root, key)
}

// Delete removes key; it reports whether the key was present.
func (s *Set) Delete(c *sim.Ctx, key int64) bool {
	return remove(arena.Sim{Sys: s.sys, C: c}, s.kind, s.root, key)
}

// Contains reports whether key is present.
func (s *Set) Contains(c *sim.Ctx, key int64) bool {
	return contains(arena.Sim{Sys: s.sys, C: c}, s.kind, s.root, key)
}

// SearchReplace performs the paper's Fig 4 operation: search for key
// and store into the key field of the last node visited the value that
// field already holds (a semantically idempotent write that still
// generates coherence traffic).
func (s *Set) SearchReplace(c *sim.Ctx, key int64) {
	searchReplace(arena.Sim{Sys: s.sys, C: c}, s.kind, s.root, key)
}

// Keys returns the sorted contents read directly from simulated memory
// (validation only; not a simulated operation).
func (s *Set) Keys() []int64 {
	return keys(arena.SimRaw{Space: s.sys.Mem}, s.kind, s.root)
}

// CheckInvariants validates the kind's structural invariants directly
// from simulated memory (validation only).
func (s *Set) CheckInvariants() error {
	return check(arena.SimRaw{Space: s.sys.Mem}, s.kind, s.root)
}

// Prefill inserts approximately half of the keys in [0, keyRange) into
// the set, deterministically from the context's RNG, using direct
// (unsynchronized) operations. Call it from a single driver thread
// before starting workers, as the paper's benchmarks do.
func Prefill(s *Set, c *sim.Ctx, keyRange int64) {
	target := keyRange / 2
	var n int64
	for n < target {
		if s.Insert(c, int64(c.Rand64())%keyRange) {
			n++
		}
	}
}

// The dispatch below picks the core for a kind, once per operation, for
// both front ends: Set runs it over arena.Sim (arena.SimRaw for
// validation), BackendSet over arena.Backend (arena.Peek). root is the
// root-pointer word, or the skip-list's head node.

// insert adds key; it reports whether the key was absent.
func insert[M arena.Mem](m M, kind Kind, root uint64, key int64) bool {
	switch kind {
	case KindAVL:
		return avlInsert(m, root, key)
	case KindBST:
		return bstInsert(m, root, key)
	case KindLeafBST:
		return lbInsert(m, root, key)
	default:
		return slInsert(m, root, key)
	}
}

// remove deletes key; it reports whether the key was present.
func remove[M arena.Mem](m M, kind Kind, root uint64, key int64) bool {
	switch kind {
	case KindAVL:
		return avlDelete(m, root, key)
	case KindBST:
		return bstDelete(m, root, key)
	case KindLeafBST:
		return lbDelete(m, root, key)
	default:
		return slDelete(m, root, key)
	}
}

// contains reports whether key is present.
func contains[M arena.Mem](m M, kind Kind, root uint64, key int64) bool {
	switch kind {
	case KindAVL:
		return avlContains(m, root, key)
	case KindBST:
		return bstContains(m, root, key)
	case KindLeafBST:
		return lbContains(m, root, key)
	default:
		return slContains(m, root, key)
	}
}

// searchReplace rewrites the key field of the last node the search for
// key visits with the value it already holds.
func searchReplace[M arena.Mem](m M, kind Kind, root uint64, key int64) {
	switch kind {
	case KindAVL:
		avlSearchReplace(m, root, key)
	case KindBST:
		bstSearchReplace(m, root, key)
	case KindLeafBST:
		lbSearchReplace(m, root, key)
	default:
		slSearchReplace(m, root, key)
	}
}

// keys returns the sorted contents (validation only).
func keys[M arena.Mem](m M, kind Kind, root uint64) []int64 {
	switch kind {
	case KindAVL:
		return avlKeys(m, root)
	case KindBST:
		return bstKeys(m, root)
	case KindLeafBST:
		return lbKeys(m, root)
	default:
		return slKeys(m, root)
	}
}

// check validates the kind's structural invariants (validation only).
func check[M arena.Mem](m M, kind Kind, root uint64) error {
	switch kind {
	case KindAVL:
		return avlCheck(m, root)
	case KindBST:
		return bstCheck(m, root)
	case KindLeafBST:
		return lbCheck(m, root)
	default:
		return slCheck(m, root)
	}
}
