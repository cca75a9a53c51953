package workload_test

import (
	"runtime"
	"testing"

	"natle/internal/backend"
	"natle/internal/native"
	"natle/internal/scheme"
	"natle/internal/service"
	"natle/internal/sets"
	"natle/internal/vtime"
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

// BenchmarkNativeWorldSetup is what a native world costs before its
// trial runs, at the sizes the end-to-end benchmark builds them: sets
// is two workers of 400,000 operations on an AVL set of 2,048 keys,
// sized by MemWords; service is 135,000 requests at 1e5 req/s on one
// shard with one server under native-tle, sized by NativeMemWords. One
// iteration sizes and builds the world and runs a one-operation trial
// on it (a one-request service), so ns/op is the sizing, the zeroed
// word array, the prefill or the bucket arrays, and a goroutine start
// and join. MB/world is the word array.
func BenchmarkNativeWorldSetup(b *testing.B) {
	b.Run("sets", func(b *testing.B) {
		cfg := workload.BackendConfig{
			Lock: "native-tle", Workload: workload.BackendSets, Threads: 2, Ops: 400_000,
			Seed: 1, KeyRange: 2048, Set: sets.KindAVL,
		}
		one := cfg
		one.Ops = 1
		for i := 0; i < b.N; i++ {
			workload.RunBackend(native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.MemWords(), Sockets: 2}), one)
		}
		b.ReportMetric(float64(cfg.MemWords())*8/1e6, "MB/world")
	})
	b.Run("service", func(b *testing.B) {
		cfg := service.Config{
			Seed: 1, Scheme: "native-tle", Shards: 1, Servers: 1, Batch: 8, QueueCap: 1 << 15,
			Arrival: service.ArrivalPoisson, Rate: 1e5, Window: 1350 * vtime.Millisecond,
			KeyRange: 4096, UpdatePct: 50,
		}
		one := cfg
		one.Window = 10 * vtime.Microsecond
		for i := 0; i < b.N; i++ {
			service.RunNative(native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.NativeMemWords(), Sockets: 2}), one)
		}
		b.ReportMetric(float64(cfg.NativeMemWords())*8/1e6, "MB/world")
	})
}
