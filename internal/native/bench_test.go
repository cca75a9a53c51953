package native

import (
	"testing"

	"natle/internal/backend"
	"natle/internal/scheme"
)

// BenchmarkSection is one critical section of every registered native
// scheme, from outside the scheme (through scheme.BackendInstance, as
// the drivers call it), by shape:
//
//   - readonly: one transactional load, nothing written — what an
//     elided section costs when elision works;
//   - write: load, add one, store, on a word nobody else touches — the
//     CAS upgrade and the writer commit on top;
//   - contended2: write, by two goroutines on one word. ns/op is wall
//     time per section of the pair, so 2x the uncontended figure means
//     the two serialize perfectly and more means they fight.
//
// The bodies are built once, outside the loop: allocs/op is the
// scheme's own.
func BenchmarkSection(b *testing.B) {
	for _, name := range scheme.NamesFor(backend.Native) {
		desc, err := scheme.LookupFor(backend.Native, name)
		if err != nil {
			b.Fatal(err)
		}
		run := func(threads int, section func(c backend.Ctx, addr int) func()) func(*testing.B) {
			return func(b *testing.B) {
				w := NewWorld(Config{Words: 64, Seed: 1, Sockets: 2})
				var cs scheme.BackendInstance
				var addr int
				b.ReportAllocs()
				w.Run(threads, func(c backend.Ctx) {
					addr = c.Alloc(1)
					cs = desc.NewNative(w, c)
					b.ResetTimer()
				}, func(c backend.Ctx) {
					body := section(c, addr)
					for i := c.Thread(); i < b.N; i += threads {
						cs.Critical(c, body)
					}
				})
				b.StopTimer()
				if st := cs.Stats().TLE; st.Ops != 0 && st.Ops != uint64(b.N) {
					b.Fatalf("%d sections counted, %d run", st.Ops, b.N)
				}
			}
		}
		readonly := func(c backend.Ctx, addr int) func() { return func() { c.Load(addr) } }
		write := func(c backend.Ctx, addr int) func() { return func() { c.Store(addr, c.Load(addr)+1) } }
		b.Run(name+"/readonly", run(1, readonly))
		b.Run(name+"/write", run(1, write))
		b.Run(name+"/contended2", run(2, write))
	}
}
