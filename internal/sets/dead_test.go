package sets

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"natle/internal/arena"
	"natle/internal/mem"
	"natle/internal/simmap"
)

// deadMem is an arena.Mem test double for one transactional attempt
// that dies at its (k+1)-th load. Until then it serves real words of a
// real structure; from then on it keeps the contract both backends give
// a dead attempt: loads return 0 (arena.Nil), stores and allocations are
// dropped (an allocation returns 0), and Rand64 returns 0 without
// drawing. A structure core run over it must return, without a panic
// and within a bounded number of further accesses, and leave memory,
// allocator and RNG as they were at its death.
type deadMem struct {
	words []uint64
	next  uint64 // bump cursor
	rng   uint64
	k     int // loads served live; -1 = all of them
	loads int // live loads made

	dead    bool
	atDeath deadState
	after   int // accesses after death
}

// deadState is what a dead attempt must not change.
type deadState struct {
	Words []uint64
	Next  uint64
	Rng   uint64
}

// maxDeadAccesses bounds the accesses a dead attempt may still make: a
// core that loops on zeros runs into it instead of hanging the fuzzer.
const maxDeadAccesses = 1 << 12

func newDeadMem() *deadMem {
	// Line 0 is never allocated, so no node lives at Nil.
	return &deadMem{words: make([]uint64, mem.WordsPerLine), next: mem.WordsPerLine, rng: 0x9E3779B97F4A7C15, k: -1}
}

func (m *deadMem) state() deadState {
	return deadState{Words: append([]uint64(nil), m.words...), Next: m.next, Rng: m.rng}
}

// deadAccess reports whether the attempt is dead, counting the access
// if it is.
func (m *deadMem) deadAccess() bool {
	if !m.dead {
		return false
	}
	if m.after++; m.after > maxDeadAccesses {
		panic(fmt.Sprintf("a dead attempt made more than %d accesses", maxDeadAccesses))
	}
	return true
}

func (m *deadMem) Load(a uint64) uint64 {
	if !m.dead && m.loads == m.k {
		m.dead, m.atDeath = true, m.state()
	}
	if m.deadAccess() {
		return 0
	}
	m.loads++
	return m.words[a]
}

func (m *deadMem) Store(a, v uint64) {
	if !m.deadAccess() {
		m.words[a] = v
	}
}

func (m *deadMem) Alloc(nWords int) uint64 {
	if m.deadAccess() {
		return 0
	}
	a := m.next
	m.next += uint64(arena.RoundLine(nWords))
	m.words = append(m.words, make([]uint64, m.next-uint64(len(m.words)))...)
	return a
}

func (m *deadMem) Rand64() uint64 {
	if m.deadAccess() {
		return 0
	}
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	return m.rng
}

// deadCtx presents a deadMem as a backend.Ctx, so the simmap cores run
// over it through the arena.Backend adapter (their node allocation is
// then the arena's cursor load and store, covered by the same rule).
type deadCtx struct{ m *deadMem }

func (c deadCtx) Thread() int           { return 0 }
func (c deadCtx) Socket() int           { return 0 }
func (c deadCtx) Rand64() uint64        { return c.m.Rand64() }
func (c deadCtx) Intn(n int) int        { return int(c.m.Rand64() % uint64(n)) }
func (c deadCtx) Now() int64            { return 0 }
func (c deadCtx) Work(int)              {}
func (c deadCtx) Alloc(nWords int) int  { return int(c.m.Alloc(nWords)) }
func (c deadCtx) Load(a int) uint64     { return c.m.Load(uint64(a)) }
func (c deadCtx) Store(a int, v uint64) { c.m.Store(uint64(a), v) }

// deadOp is one structure operation under test: setup builds its
// prefilled structure in m (live) and returns the operation bound to it.
type deadOp struct {
	name  string
	setup func(m *deadMem) func(key int64)
}

// prefillKeys is the structure every operation runs against: 32 keys
// of [0, 64), so a probe key hits or misses it depending on the key.
func prefillKeys() []int64 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, 32)
	for i := range keys {
		keys[i] = rng.Int63n(64)
	}
	return keys
}

// deadOps lists every set kind's four operations over the cores the sim
// Set wrappers use, then simmap's Get, Put and Delete.
func deadOps() []deadOp {
	type core struct {
		insert, delete, contains func(*deadMem, uint64, int64) bool
		searchReplace            func(*deadMem, uint64, int64)
	}
	cores := map[Kind]core{
		KindAVL:      {avlInsert[*deadMem], avlDelete[*deadMem], avlContains[*deadMem], avlSearchReplace[*deadMem]},
		KindBST:      {bstInsert[*deadMem], bstDelete[*deadMem], bstContains[*deadMem], bstSearchReplace[*deadMem]},
		KindLeafBST:  {lbInsert[*deadMem], lbDelete[*deadMem], lbContains[*deadMem], lbSearchReplace[*deadMem]},
		KindSkipList: {slInsert[*deadMem], slDelete[*deadMem], slContains[*deadMem], slSearchReplace[*deadMem]},
	}
	var ops []deadOp
	for _, kind := range Kinds() {
		cr := cores[kind]
		build := func(m *deadMem) uint64 {
			if kind != KindSkipList {
				return m.Alloc(1)
			}
			head := m.Alloc(slNext + slMaxLevel)
			m.Store(head+slLevel, slMaxLevel)
			return head
		}
		for _, op := range []struct {
			name string
			run  func(m *deadMem, root uint64, key int64)
		}{
			{"contains", func(m *deadMem, root uint64, key int64) { cr.contains(m, root, key) }},
			{"insert", func(m *deadMem, root uint64, key int64) { cr.insert(m, root, key) }},
			{"delete", func(m *deadMem, root uint64, key int64) { cr.delete(m, root, key) }},
			{"searchreplace", cr.searchReplace},
		} {
			ops = append(ops, deadOp{string(kind) + "/" + op.name, func(m *deadMem) func(int64) {
				root := build(m)
				for _, k := range prefillKeys() {
					cr.insert(m, root, k)
				}
				return func(key int64) { op.run(m, root, key) }
			}})
		}
	}
	for _, op := range []struct {
		name string
		run  func(mp *simmap.BackendMap, c deadCtx, key uint64)
	}{
		{"get", func(mp *simmap.BackendMap, c deadCtx, key uint64) { mp.Get(c, key) }},
		{"put", func(mp *simmap.BackendMap, c deadCtx, key uint64) { mp.Put(c, key, key+1) }},
		{"delete", func(mp *simmap.BackendMap, c deadCtx, key uint64) { mp.Delete(c, key) }},
	} {
		ops = append(ops, deadOp{"simmap/" + op.name, func(m *deadMem) func(int64) {
			c := deadCtx{m}
			keys := prefillKeys()
			ar := arena.New(c, 2, (len(keys)+1)*simmap.NodeWords())
			mp := simmap.NewBackendMap(c, ar, 3) // 8 buckets: chains of four
			for _, k := range keys {
				mp.Put(c, uint64(k), uint64(k))
			}
			return func(key int64) { op.run(mp, c, uint64(key)) }
		}})
	}
	return ops
}

// FuzzDeadAttempt runs one structure operation whose attempt dies after
// k loads, at every point a transaction can find itself aborted. The
// operation must return without a panic, within maxDeadAccesses further
// accesses, and its dead part must leave memory, the allocator and the
// RNG exactly as its death found them. The seed corpus covers every k up
// to each operation's load count for a few keys, present and absent, so
// plain go test runs every abort point once.
func FuzzDeadAttempt(f *testing.F) {
	ops := deadOps()
	for i, op := range ops {
		for _, key := range []int64{-1, 5, 40, 63, 1 << 40} {
			m := newDeadMem()
			run := op.setup(m)
			m.loads = 0
			run(key)
			for k := 0; k <= m.loads; k++ {
				f.Add(uint8(i), key, uint16(k))
			}
		}
	}
	f.Fuzz(func(t *testing.T, i uint8, key int64, k uint16) {
		op := ops[int(i)%len(ops)]
		m := newDeadMem()
		run := op.setup(m)
		m.loads, m.k = 0, int(k)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s(%d), dead after %d loads: %v", op.name, key, k, r)
				}
			}()
			run(key)
		}()
		if !m.dead {
			return // k is past the operation's loads: it ran live
		}
		if got := m.state(); !reflect.DeepEqual(got, m.atDeath) {
			t.Fatalf("%s(%d), dead after %d loads: the dead part had effects", op.name, key, k)
		}
	})
}
