package sets

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"natle/internal/arena"
	"natle/internal/backend"
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

// deadWorld presents a deadMem's words as a quiesced backend.World, so
// simmap's PeekEach can walk the map's final contents.
type deadWorld struct{ m *deadMem }

func (deadWorld) Kind() backend.Kind                            { return backend.Sim }
func (deadWorld) Run(int, func(backend.Ctx), func(backend.Ctx)) {}
func (w deadWorld) Peek(a int) uint64                           { return w.m.words[a] }

// result is what one operation returns: ok is the bool every operation
// but searchreplace reports, v the value simmap's Get finds.
type result struct {
	v  uint64
	ok bool
}

// deadOp is one structure operation under test. setup builds its
// prefilled structure in m (live) and returns the operation bound to it
// and a walk of the structure's keys; model applies the operation to a
// set of keys and returns what the operation should.
type deadOp struct {
	name  string
	setup func(m *deadMem) (run func(key int64) result, keys func() []int64)
	model func(set map[int64]bool, key int64) result
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

func modelContains(set map[int64]bool, key int64) result { return result{ok: set[key]} }

func modelInsert(set map[int64]bool, key int64) result {
	r := result{ok: !set[key]}
	set[key] = true
	return r
}

func modelDelete(set map[int64]bool, key int64) result {
	r := result{ok: set[key]}
	delete(set, key)
	return r
}

// deadOps lists every set kind's four operations through the kind
// dispatch Set and BackendSet both run, then simmap's Get, Put and
// Delete.
func deadOps() []deadOp {
	var ops []deadOp
	for _, kind := range Kinds() {
		build := func(m *deadMem) uint64 {
			if kind != KindSkipList {
				return m.Alloc(1)
			}
			head := m.Alloc(slNext + slMaxLevel)
			m.Store(head+slLevel, slMaxLevel)
			return head
		}
		for _, op := range []struct {
			name  string
			run   func(m *deadMem, root uint64, key int64) result
			model func(set map[int64]bool, key int64) result
		}{
			{"contains", func(m *deadMem, root uint64, key int64) result { return result{ok: contains(m, kind, root, key)} }, modelContains},
			{"insert", func(m *deadMem, root uint64, key int64) result { return result{ok: insert(m, kind, root, key)} }, modelInsert},
			{"delete", func(m *deadMem, root uint64, key int64) result { return result{ok: remove(m, kind, root, key)} }, modelDelete},
			{"searchreplace", func(m *deadMem, root uint64, key int64) result {
				searchReplace(m, kind, root, key)
				return result{}
			}, func(map[int64]bool, int64) result { return result{} }},
		} {
			ops = append(ops, deadOp{string(kind) + "/" + op.name, func(m *deadMem) (func(int64) result, func() []int64) {
				root := build(m)
				for _, k := range prefillKeys() {
					insert(m, kind, root, k)
				}
				return func(key int64) result { return op.run(m, root, key) },
					func() []int64 { return keys(m, kind, root) }
			}, op.model})
		}
	}
	for _, op := range []struct {
		name  string
		run   func(mp *simmap.BackendMap, c deadCtx, key uint64) result
		model func(set map[int64]bool, key int64) result
	}{
		{"get", func(mp *simmap.BackendMap, c deadCtx, key uint64) result {
			v, ok := mp.Get(c, key)
			return result{v, ok}
		}, func(set map[int64]bool, key int64) result {
			if set[key] {
				return result{uint64(key), true} // prefilled with its own key as value
			}
			return result{}
		}},
		{"put", func(mp *simmap.BackendMap, c deadCtx, key uint64) result {
			return result{ok: mp.Put(c, key, key+1)}
		}, func(set map[int64]bool, key int64) result {
			r := result{ok: set[key]} // Put reports whether the key was present
			set[key] = true
			return r
		}},
		{"delete", func(mp *simmap.BackendMap, c deadCtx, key uint64) result {
			return result{ok: mp.Delete(c, key)}
		}, modelDelete},
	} {
		ops = append(ops, deadOp{"simmap/" + op.name, func(m *deadMem) (func(int64) result, func() []int64) {
			c := deadCtx{m}
			keys := prefillKeys()
			ar := arena.New(c, 2, (len(keys)+1)*simmap.NodeWords())
			mp := simmap.NewBackendMap(c, ar, 3) // 8 buckets: chains of four
			for _, k := range keys {
				mp.Put(c, uint64(k), uint64(k))
			}
			return func(key int64) result { return op.run(mp, c, uint64(key)) },
				func() []int64 {
					var ks []int64
					mp.PeekEach(deadWorld{m}, func(k, _ uint64) { ks = append(ks, int64(k)) })
					return ks
				}
		}, op.model})
	}
	return ops
}

// FuzzDeadAttempt runs one structure operation whose attempt dies after
// k loads, at every point a transaction can find itself aborted. The
// operation must return without a panic, within maxDeadAccesses further
// accesses, and its dead part must leave memory, the allocator and the
// RNG exactly as its death found them. Then, as Try's retry does, the
// attempt's stores are discarded and the operation runs again, live: its
// result and the structure's final keys must be those of a map model of
// the prefilled keys. The seed corpus covers every k up to each
// operation's load count for a few keys, present and absent, so plain go
// test runs every abort point once.
func FuzzDeadAttempt(f *testing.F) {
	ops := deadOps()
	for i, op := range ops {
		for _, key := range []int64{-1, 5, 40, 63, 1 << 40} {
			m := newDeadMem()
			run, _ := op.setup(m)
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
		run, keys := op.setup(m)
		start := m.state()
		m.loads, m.k = 0, int(k)
		var got result
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s(%d), dead after %d loads: %v", op.name, key, k, r)
				}
			}()
			got = run(key)
		}()
		m.k = -1
		if m.dead {
			if st := m.state(); !reflect.DeepEqual(st, m.atDeath) {
				t.Fatalf("%s(%d), dead after %d loads: the dead part had effects", op.name, key, k)
			}
			// The retry: what the dead attempt allocated or drew stays
			// taken, as on the simulator.
			m.words, m.dead = start.Words, false
			got = run(key)
		}
		set := map[int64]bool{}
		for _, pk := range prefillKeys() {
			set[pk] = true
		}
		if want := op.model(set, key); got != want {
			t.Fatalf("%s(%d), dead after %d loads: the retry returned %+v, want %+v", op.name, key, k, got, want)
		}
		want := make([]int64, 0, len(set))
		for sk := range set {
			want = append(want, sk)
		}
		have := keys()
		slices.Sort(want)
		slices.Sort(have)
		if !slices.Equal(have, want) {
			t.Fatalf("%s(%d), dead after %d loads: keys after the retry %v, want %v", op.name, key, k, have, want)
		}
	})
}
