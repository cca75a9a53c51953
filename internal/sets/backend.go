package sets

import (
	"fmt"

	"natle/internal/arena"
	"natle/internal/backend"
)

// BackendSet is Set's counterpart on any backend: the same kind
// dispatch and structure cores, run over the backend.Ctx contract with
// nodes carved from an arena in backend words — so one set
// implementation executes on the simulator and on real goroutines
// alike. Operations must be called inside whatever critical section the
// workload's scheme provides, exactly like Set's.
type BackendSet struct {
	kind Kind
	root uint64 // root-pointer word (sentinel head node for skiplist)
	ar   *arena.Arena
}

// NewBackendSet builds an empty set of the given kind during world
// setup (c must be the setup context). Nodes will be allocated from ar;
// the root word (or skip-list head tower) comes straight from the
// world allocator.
func NewBackendSet(kind Kind, c backend.Ctx, ar *arena.Arena) (*BackendSet, error) {
	s := &BackendSet{kind: kind, ar: ar}
	switch kind {
	case KindAVL, KindBST, KindLeafBST:
		s.root = uint64(c.Alloc(1))
	case KindSkipList:
		head := uint64(c.Alloc(slNext + slMaxLevel))
		c.Store(int(head)+slLevel, slMaxLevel)
		s.root = head
	default:
		return nil, fmt.Errorf("sets: unknown kind %q", kind)
	}
	return s, nil
}

// Kind returns the structure kind.
func (s *BackendSet) Kind() Kind { return s.kind }

// Insert adds key inside the current critical section; it reports
// whether the key was absent.
func (s *BackendSet) Insert(c backend.Ctx, key int64) bool {
	return insert(arena.Bind(c, s.ar), s.kind, s.root, key)
}

// Delete removes key; it reports whether the key was present.
func (s *BackendSet) Delete(c backend.Ctx, key int64) bool {
	return remove(arena.Bind(c, s.ar), s.kind, s.root, key)
}

// Contains reports whether key is present.
func (s *BackendSet) Contains(c backend.Ctx, key int64) bool {
	return contains(arena.Bind(c, s.ar), s.kind, s.root, key)
}

// SearchReplace performs the paper's idempotent search-and-rewrite.
func (s *BackendSet) SearchReplace(c backend.Ctx, key int64) {
	searchReplace(arena.Bind(c, s.ar), s.kind, s.root, key)
}

// Keys returns the sorted contents read from the quiesced world
// (validation only; call after World.Run returns).
func (s *BackendSet) Keys(w backend.World) []int64 {
	return keys(arena.Peek{W: w}, s.kind, s.root)
}

// CheckInvariants validates structural invariants from the quiesced
// world (validation only).
func (s *BackendSet) CheckInvariants(w backend.World) error {
	return check(arena.Peek{W: w}, s.kind, s.root)
}

// InsertWords returns the worst-case arena words one Insert of the
// given kind consumes (line-rounded node allocations: the leaf BST
// allocates a leaf plus a router, the skip-list a full tower). Memory
// estimators multiply this by the insert budget.
func InsertWords(kind Kind) int {
	switch kind {
	case KindAVL:
		return arena.RoundLine(avlWords)
	case KindBST:
		return arena.RoundLine(ibWords)
	case KindLeafBST:
		return 2 * arena.RoundLine(lbWords)
	case KindSkipList:
		return arena.RoundLine(slNext + slMaxLevel)
	}
	return 0
}

// Kinds lists the available set kinds in stable order.
func Kinds() []Kind {
	return []Kind{KindAVL, KindBST, KindLeafBST, KindSkipList}
}
