package sets

import (
	"testing"

	"natle/internal/arena"
	"natle/internal/backend"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/native"
	"natle/internal/sim"
)

// benchKeys is the benchmark key space. Each structure is prefilled
// with its even keys; contains probes every key in turn, insert adds
// the odd keys and delete removes the even ones, each key once per
// structure. Prefill, insert and delete visit their keys in the
// scrambled order of scramble, so the unbalanced trees are not lists.
const benchKeys = 2048

// scramble is a permutation of [0, benchKeys/2) (769 is odd).
func scramble(i int) int64 { return int64(i * 769 % (benchKeys / 2)) }

// benchOps are the timed operations with the key of the i-th call on
// one structure. insert and delete have benchKeys/2 keys to use, so a
// structure serves at most that many of them before a fresh one
// replaces it, timer stopped.
var benchOps = []struct {
	name  string
	key   func(i int) int64
	chunk int // calls per structure, 0 = unbounded
}{
	{"contains", func(i int) int64 { return int64(i * 7 % benchKeys) }, 0},
	{"insert", func(i int) int64 { return 2*scramble(i) + 1 }, benchKeys / 2},
	{"delete", func(i int) int64 { return 2 * scramble(i) }, benchKeys / 2},
}

// benchChunks runs b.N calls as calls run(n) of at most chunk each (all
// of them at once if chunk is 0), with the timer stopped between them:
// run builds and prefills a fresh structure, starts the timer, makes
// its n calls and stops it.
func benchChunks(b *testing.B, chunk int, run func(n int)) {
	b.ReportAllocs()
	b.StopTimer()
	for done := 0; done < b.N; {
		n := b.N - done
		if chunk > 0 {
			n = min(n, chunk)
		}
		run(n)
		done += n
	}
}

// BenchmarkSim times one operation of each set kind through Set,
// outside any critical section, on a lone simulated thread.
func BenchmarkSim(b *testing.B) {
	for _, kind := range Kinds() {
		for _, op := range benchOps {
			b.Run(string(kind)+"/"+op.name, func(b *testing.B) {
				benchChunks(b, op.chunk, func(n int) {
					e := sim.New(machine.LargeX52(), nil, 1, 1)
					sys := htm.NewSystem(e, 1<<16)
					e.Spawn(nil, func(c *sim.Ctx) {
						s, err := New(kind, sys, c)
						if err != nil {
							b.Fatal(err)
						}
						for i := 0; i < benchKeys/2; i++ {
							s.Insert(c, 2*scramble(i))
						}
						call := map[string]func(*sim.Ctx, int64) bool{
							"contains": s.Contains, "insert": s.Insert, "delete": s.Delete,
						}[op.name]
						b.StartTimer()
						for i := 0; i < n; i++ {
							call(c, op.key(i))
						}
						b.StopTimer()
					})
					e.Run()
				})
			})
		}
	}
}

// BenchmarkBackend times one operation of each set kind through
// BackendSet on one goroutine of a native world, outside any critical
// section.
func BenchmarkBackend(b *testing.B) {
	for _, kind := range Kinds() {
		for _, op := range benchOps {
			b.Run(string(kind)+"/"+op.name, func(b *testing.B) {
				benchChunks(b, op.chunk, func(n int) {
					laneWords := benchKeys / 2 * InsertWords(kind)
					w := native.NewWorld(native.Config{Words: 4 * laneWords, Seed: 1})
					var s *BackendSet
					w.Run(1, func(c backend.Ctx) {
						var err error
						if s, err = NewBackendSet(kind, c, arena.New(c, 2, laneWords)); err != nil {
							b.Fatal(err)
						}
						for i := 0; i < benchKeys/2; i++ {
							s.Insert(c, 2*scramble(i))
						}
					}, func(c backend.Ctx) {
						call := map[string]func(backend.Ctx, int64) bool{
							"contains": s.Contains, "insert": s.Insert, "delete": s.Delete,
						}[op.name]
						b.StartTimer()
						for i := 0; i < n; i++ {
							call(c, op.key(i))
						}
						b.StopTimer()
					})
				})
			})
		}
	}
}
