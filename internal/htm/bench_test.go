package htm

import (
	"testing"

	"natle/internal/machine"
	"natle/internal/mem"
	"natle/internal/sim"
)

// BenchmarkTx times one uncontended transaction, begin to commit, on a
// single simulated thread (ns/op is per transaction, not per access):
// read33 is a tree descent, 33 reads of distinct lines with nothing
// buffered; write33 buffers one word in each of 33 lines and commits
// them; readAfterWrite writes one word in each of 11 lines and then
// reads those 11 words back from the buffer, 11 unwritten words of the
// same lines (probe, miss) and 11 words of other lines (no probe).
func BenchmarkTx(b *testing.B) {
	const lines = 33
	for _, bc := range []struct {
		name string
		body func(s *System, c *sim.Ctx, base mem.Addr)
	}{
		{"read33", func(s *System, c *sim.Ctx, base mem.Addr) {
			for i := mem.Addr(0); i < lines; i++ {
				s.Read(c, base+i*mem.WordsPerLine)
			}
		}},
		{"write33", func(s *System, c *sim.Ctx, base mem.Addr) {
			for i := mem.Addr(0); i < lines; i++ {
				s.Write(c, base+i*mem.WordsPerLine, uint64(i))
			}
		}},
		{"readAfterWrite", func(s *System, c *sim.Ctx, base mem.Addr) {
			for i := mem.Addr(0); i < lines/3; i++ {
				s.Write(c, base+i*mem.WordsPerLine, uint64(i))
			}
			for i := mem.Addr(0); i < lines/3; i++ {
				s.Read(c, base+i*mem.WordsPerLine)
				s.Read(c, base+i*mem.WordsPerLine+1)
				s.Read(c, base+(i+lines/3)*mem.WordsPerLine)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := sim.New(machine.LargeX52(), nil, 1, 1)
			s := NewSystem(e, 1<<12)
			base := s.Mem.Alloc(lines*mem.WordsPerLine, 0)
			e.Spawn(nil, func(c *sim.Ctx) {
				body := func() { bc.body(s, c, base) }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !s.Try(c, body).Committed {
						b.Fatal("uncontended transaction aborted")
					}
				}
			})
			e.Run()
		})
	}
}

// BenchmarkAbort times one transaction aborted by a conflicting write
// half-way down a tree descent (ns/op is per attempt, begin to abort
// reported): the body follows a chain of 33 lines, each holding the
// address of the next, and at depth 16 another thread's write to the
// root line dooms it; the next Read finds that and returns 0 (nil), as
// every later one of the dead attempt would, and the walk ends.
func BenchmarkAbort(b *testing.B) {
	const lines, doomAt = 33, 16
	e := sim.New(machine.LargeX52(), nil, 1, 1)
	s := NewSystem(e, 1<<12)
	base := s.Mem.Alloc(lines*mem.WordsPerLine, 0)
	for i := mem.Addr(0); i < lines-1; i++ {
		s.Mem.SetRaw(base+i*mem.WordsPerLine, uint64(base+(i+1)*mem.WordsPerLine))
	}
	e.Spawn(nil, func(c *sim.Ctx) {
		body := func() {
			a := base
			for depth := 0; a != 0; depth++ {
				if depth == doomAt {
					s.abortConflictors(mem.LineOf(base), -1, true)
				}
				a = mem.Addr(s.Read(c, a))
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.Try(c, body).Committed {
				b.Fatal("doomed transaction committed")
			}
		}
	})
	e.Run()
}
