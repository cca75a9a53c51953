package workload_test

import (
	"runtime"
	"testing"

	"natle/internal/backend"
	"natle/internal/native"
	"natle/internal/scheme"
	"natle/internal/workload"
)

// nativeMallocs runs one native trial of cfg and returns the heap
// objects the whole call allocated, world excluded.
func nativeMallocs(cfg workload.BackendConfig) (*workload.BackendResult, uint64) {
	w := native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.MemWords(), Sockets: 2})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := workload.RunBackend(w, cfg)
	runtime.ReadMemStats(&after)
	return r, after.Mallocs - before.Mallocs
}

// BenchmarkRunBackend is the driver's closed loop per operation — hash
// the schedule, hand the section to the scheme, run it — for two
// goroutines under every native scheme: counter is the shortest
// section there is, so ns/operation is the scheme's entry and exit plus
// whatever the driver adds, and sets is an AVL operation under the same
// loop. allocs/operation counts RunBackend's set-up as well, spread
// over the trial's operations.
func BenchmarkRunBackend(b *testing.B) {
	for _, wl := range []string{workload.BackendCounter, workload.BackendSets} {
		for _, lock := range scheme.NamesFor(backend.Native) {
			cfg := workload.BackendConfig{
				Lock: lock, Workload: wl, Threads: 2, Ops: 1 << 15, Seed: 1, KeyRange: 2048,
			}
			b.Run(wl+"/"+lock, func(b *testing.B) {
				var ns int64
				var ops, mallocs uint64
				for i := 0; i < b.N; i++ {
					r, m := nativeMallocs(cfg)
					ns += r.ElapsedNs
					ops += r.Ops
					mallocs += m
				}
				b.ReportMetric(float64(ns)/float64(ops), "ns/operation")
				b.ReportMetric(float64(mallocs)/float64(ops), "allocs/operation")
			})
		}
	}
}
