package service

import (
	"runtime"
	"testing"
	"time"

	"natle/internal/backend"
	"natle/internal/native"
	"natle/internal/vtime"
)

// BenchmarkSchedule times generating the arrival schedule of the
// benchmark's sim-service trial: Poisson arrivals at 8e6 req/s over
// 40 ms, 320 k requests. ns/op is per schedule; B/op shows whether the
// slice was sized once or doubled into.
func BenchmarkSchedule(b *testing.B) {
	cfg := Config{Seed: 1, Rate: 8e6, Window: 40 * vtime.Millisecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := len(cfg.Schedule()); n < 300000 {
			b.Fatalf("schedule has %d requests", n)
		}
	}
}

// BenchmarkPipeline times the pipeline itself — dispatch, queue, batch,
// critical section, ledger — per scheduled request on either host, for a
// trial small enough that nothing else amortizes: 8e6 req/s over 2 ms,
// 16 k requests, default shards and servers. Config resolution and the
// schedule (BenchmarkSchedule's subject) stay outside the timer, and so
// does sizing and building the native world. The simulator's share of
// sim/ns-per-request is what the seam must not add to; native is a flood
// (the rate is far past what a host replays in real time), so its
// ns/request is the frontend's admit-or-shed cost, between the batches
// it serves itself, with the other servers draining beside it. native-paced offers 1e5 req/s over 20 ms, 2 k
// requests, which a host keeps up with: its ns/request is pinned near
// the 10 µs between arrivals, and its cpu-ns/request, the process CPU
// time (getrusage) per request, is what the frontend and its wake-ups
// cost while it waits for the next one. native-paced-1x1 is the same
// load on one shard with one server, batch 8, the frontend's own: each
// wake-up is one kernel sleep and no hand-off to another thread.
func BenchmarkPipeline(b *testing.B) {
	cfg := Config{Seed: 1, Rate: 8e6, Window: 2 * vtime.Millisecond}
	run := func(kind backend.Kind, cfg Config, newHost func() func(*pipeline)) func(*testing.B) {
		return func(b *testing.B) {
			var ms runtime.MemStats
			var mallocs uint64
			var cpu time.Duration
			requests := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := newPipeline(kind, cfg)
				h := newHost()
				runtime.ReadMemStats(&ms)
				mallocs -= ms.Mallocs
				cpu -= native.ProcessCPU()
				b.StartTimer()
				requests += p.run(h).Requests
				b.StopTimer()
				cpu += native.ProcessCPU()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(requests), "ns/request")
			b.ReportMetric(float64(cpu.Nanoseconds())/float64(requests), "cpu-ns/request")
			b.ReportMetric(float64(mallocs)/float64(requests), "allocs/request")
		}
	}
	nativeHostFor := func(cfg Config) func() func(*pipeline) {
		words := cfg.NativeMemWords()
		return func() func(*pipeline) {
			return nativeHost(native.NewWorld(native.Config{Seed: cfg.Seed, Words: words}))
		}
	}
	b.Run("sim", run(backend.Sim, cfg, func() func(*pipeline) { return simHost }))
	cfg.Scheme = "native-tle"
	b.Run("native", run(backend.Native, cfg, nativeHostFor(cfg)))
	cfg.Rate, cfg.Window = 1e5, 20*vtime.Millisecond
	b.Run("native-paced", run(backend.Native, cfg, nativeHostFor(cfg)))
	cfg.Shards, cfg.Servers, cfg.Batch = 1, 1, 8
	b.Run("native-paced-1x1", run(backend.Native, cfg, nativeHostFor(cfg)))
}

// TestServerLoopAllocatesNothingPerRequest: whatever a trial allocates
// once it runs — its servers, their bodies and batch buffers, the
// queues grown to their depth, the result — does not grow with the
// number of requests. Two trials that differ only in length differ by
// well under one heap object per hundred extra requests, on either
// host. The arrival stream is pulled inside the count, and the native
// world is built outside it.
func TestServerLoopAllocatesNothingPerRequest(t *testing.T) {
	const short, long = vtime.Millisecond, 4 * vtime.Millisecond
	mallocs := func(kind backend.Kind, cfg Config) (requests int, n uint64) {
		p := newPipeline(kind, cfg)
		host := simHost
		if kind == backend.Native {
			host = nativeHost(native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.NativeMemWords()}))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		requests = p.run(host).Requests
		runtime.ReadMemStats(&after)
		return requests, after.Mallocs - before.Mallocs
	}
	for _, tc := range []struct {
		kind   backend.Kind
		scheme string
	}{{backend.Sim, "tle"}, {backend.Native, "native-tle"}} {
		cfg := Config{Seed: 1, Rate: 8e6, Scheme: tc.scheme}
		cfg.Window = short
		rs, few := mallocs(tc.kind, cfg)
		cfg.Window = long
		rl, many := mallocs(tc.kind, cfg)
		if perReq := (float64(many) - float64(few)) / float64(rl-rs); perReq >= 0.01 {
			t.Errorf("%s: %d allocations for %d requests, %d for %d: %.4f per extra request",
				tc.scheme, few, rs, many, rl, perReq)
		}
	}
}
