package cache

import (
	"testing"

	"natle/internal/machine"
	"natle/internal/vtime"
)

// BenchmarkAccess times Model.Access on each path out of its switch. A
// sub-benchmark names the path, gives the access pattern that stays on
// it, and fails unless Model.Stats says every timed access took it.
func BenchmarkAccess(b *testing.B) {
	p := machine.LargeX52()
	remoteCore := p.CoresPerSocket // first core of socket 1
	sets := int32(p.PrivateCacheSets)
	for _, bc := range []struct {
		name   string
		per    int // accesses per iteration
		access func(m *Model, now vtime.Time, i int) vtime.Duration
		took   func(Stats) uint64 // accesses on the named path
	}{
		// One core re-reads 64 lines it holds privately.
		{"l1hit", 1, func(m *Model, now vtime.Time, i int) vtime.Duration {
			return m.Access(now, 0, 0, 0, int32(i&63), false)
		}, func(s Stats) uint64 { return s.L1Hits }},
		// One core alternates between two lines that share a slot of
		// its direct-mapped private cache: each read finds the tag
		// evicted and the socket still a sharer.
		{"l3hit", 1, func(m *Model, now vtime.Time, i int) vtime.Duration {
			return m.Access(now, 0, 0, 0, 1+int32(i&1)*sets, false)
		}, func(s Stats) uint64 { return s.L3Hits }},
		// Two cores on different sockets take turns writing one line:
		// every access is a cross-socket transfer of a modified copy.
		{"remote", 1, func(m *Model, now vtime.Time, i int) vtime.Duration {
			return m.Access(now, (i&1)*remoteCore, i&1, 0, 7, true)
		}, func(s Stats) uint64 { return min(s.RemoteHits, s.RemoteInvals) }},
		// The upgrade of a shared line: a core of the other socket reads
		// the line, then its owner writes it again — a private hit that
		// has a remote copy to invalidate. Two accesses an iteration;
		// the write is the one counted.
		{"invalidate", 2, func(m *Model, now vtime.Time, i int) vtime.Duration {
			d := m.Access(now, remoteCore, 1, 0, 9, false)
			return d + m.Access(now.Add(d), 0, 0, 0, 9, true)
		}, func(s Stats) uint64 { return min(s.L1Hits, s.RemoteInvals) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := New(p)
			m.EnsureLines(int(2*sets) + 64)
			var now vtime.Time
			for i := 0; i < 128; i++ { // warm the lines the pattern revisits
				now = now.Add(bc.access(m, now, i))
			}
			before := m.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(bc.access(m, now, i))
			}
			b.StopTimer()
			d := m.Stats.Sub(before)
			total := d.L1Hits + d.L3Hits + d.RemoteHits + d.DRAMAccesses
			if got := bc.took(d); got != uint64(b.N) || total != uint64(b.N*bc.per) {
				b.Fatalf("%d of %d iterations (%d accesses) took the %s path: %+v", got, b.N, total, bc.name, d)
			}
		})
	}
}
