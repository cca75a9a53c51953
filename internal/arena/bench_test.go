package arena_test

import (
	"testing"

	"natle/internal/arena"
	"natle/internal/backend"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/mem"
	"natle/internal/native"
	"natle/internal/sim"
)

// lines is how many distinct lines the load and store cases cycle over.
const lines = 64

// allocChunk is how many allocations one world serves before a fresh
// one replaces it, timer stopped, so alloc is timed at a bounded
// footprint rather than at whatever b.N grows memory to.
const allocChunk = 1 << 12

var ops = []string{"load", "store", "alloc"}

// do runs n operations op through m: a load or a store cycling over
// the lines from base, or a one-word (one-line) allocation.
func do[M arena.Mem](m M, op string, base uint64, n int) {
	switch op {
	case "load":
		for i := 0; i < n; i++ {
			m.Load(base + uint64(i%lines)*mem.WordsPerLine)
		}
	case "store":
		for i := 0; i < n; i++ {
			m.Store(base+uint64(i%lines)*mem.WordsPerLine, uint64(i))
		}
	default:
		for i := 0; i < n; i++ {
			m.Alloc(1)
		}
	}
}

// chunks runs b.N operations as calls run(n), n at most allocChunk for
// alloc, with the timer stopped between them: run builds a fresh
// world, starts the timer, does its n operations and stops it.
func chunks(b *testing.B, op string, run func(n int)) {
	b.ReportAllocs()
	b.StopTimer()
	for done := 0; done < b.N; {
		n := b.N - done
		if op == "alloc" {
			n = min(n, allocChunk)
		}
		run(n)
		done += n
	}
}

// BenchmarkSim times one access through arena.Sim by a lone simulated
// thread outside any transaction: the simulator's coherence-timed load
// and store, and its line-aligned allocator.
func BenchmarkSim(b *testing.B) {
	for _, op := range ops {
		b.Run(op, func(b *testing.B) {
			chunks(b, op, func(n int) {
				e := sim.New(machine.LargeX52(), nil, 1, 1)
				sys := htm.NewSystem(e, (lines+allocChunk+1)*mem.WordsPerLine)
				e.Spawn(nil, func(c *sim.Ctx) {
					m := arena.Sim{Sys: sys, C: c}
					base := m.Alloc(lines * mem.WordsPerLine)
					b.StartTimer()
					do(m, op, base, n)
					b.StopTimer()
				})
				e.Run()
			})
		})
	}
}

// BenchmarkBackend times one access through arena.Backend on one
// goroutine of a native world, outside any critical section: a world
// word's load and store, and a bump of the thread's arena lane.
func BenchmarkBackend(b *testing.B) {
	for _, op := range ops {
		b.Run(op, func(b *testing.B) {
			chunks(b, op, func(n int) {
				w := native.NewWorld(native.Config{Words: 1 << 17, Seed: 1})
				var ar *arena.Arena
				var base uint64
				w.Run(1, func(c backend.Ctx) {
					ar = arena.New(c, 2, allocChunk*mem.WordsPerLine)
					base = uint64(c.Alloc(lines * mem.WordsPerLine))
				}, func(c backend.Ctx) {
					m := arena.Bind(c, ar)
					b.StartTimer()
					do(m, op, base, n)
					b.StopTimer()
				})
			})
		})
	}
}
