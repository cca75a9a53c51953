package service_test

import (
	"runtime"
	"slices"
	"testing"

	"natle/internal/backend"
	"natle/internal/fault"
	"natle/internal/native"
	"natle/internal/service"
	"natle/internal/telemetry"
	"natle/internal/vtime"
)

// nativeConfBase is a trial small enough to replay against the wall
// clock in milliseconds, shaped for cross-backend store conformance:
// one server per shard (each shard applies its request subsequence in
// admission order) and a queue bound no arrival burst can hit, so no
// request is shed on either backend.
func nativeConfBase() service.Config {
	return service.Config{
		Seed:     11,
		Rate:     2e5,
		Window:   vtime.Millisecond,
		Shards:   4,
		Servers:  1,
		QueueCap: 4096,
		KeyRange: 512,
	}
}

// TestNativeServiceStoreConformance: the simulator predicts, the
// native backend proves — the final KV contents of the same Config
// must agree between the sim run and the native run under every
// native scheme mirror.
func TestNativeServiceStoreConformance(t *testing.T) {
	base := nativeConfBase()

	simCfg := base
	simCfg.Scheme = "tle"
	simRes := service.Run(simCfg)
	if simRes.Shed != 0 || simRes.DeadlineShed != 0 {
		t.Fatalf("sim trial shed %d/%d requests; conformance needs loss-free trials", simRes.Shed, simRes.DeadlineShed)
	}

	check := func(t *testing.T, cfg service.Config, want uint64) *service.Result {
		nat := cfg.Scheme
		w := native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.NativeMemWords()})
		res := service.RunNative(w, cfg)

		if res.Arrivals != res.Admitted+res.Shed {
			t.Fatalf("arrivals %d != admitted %d + shed %d", res.Arrivals, res.Admitted, res.Shed)
		}
		if res.Admitted != res.Completed+res.DeadlineShed {
			t.Fatalf("admitted %d != completed %d + deadline-shed %d", res.Admitted, res.Completed, res.DeadlineShed)
		}
		if res.Shed != 0 {
			t.Fatalf("native trial shed %d requests; queue bound mis-sized for conformance", res.Shed)
		}
		if uint64(res.Requests) != res.Arrivals {
			t.Fatalf("schedule length %d != arrivals %d", res.Requests, res.Arrivals)
		}
		if res.StoreCheck != want {
			t.Fatalf("final store diverges: sim %#x, %s %#x", want, nat, res.StoreCheck)
		}
		if res.E2E.Count() != res.Completed {
			t.Fatalf("e2e histogram count %d != completed %d", res.E2E.Count(), res.Completed)
		}
		// Scheme-counter conservation for eliding schemes.
		for i, s := range res.SyncPerShard {
			if s.TLE.Ops == 0 {
				continue
			}
			if got := s.TLE.Commits + s.TLE.Fallbacks; got != s.TLE.Ops {
				t.Fatalf("shard %d: commits+fallbacks = %d, want ops = %d", i, got, s.TLE.Ops)
			}
		}
		return res
	}
	for _, nat := range []string{"native-mutex", "native-tle", "native-natle"} {
		t.Run(nat, func(t *testing.T) {
			cfg := base
			cfg.Scheme = nat
			check(t, cfg, simRes.StoreCheck)
		})
	}
	// One P: the dispatcher must give it up before each sleep, or the
	// server it has just woken waits behind the sleep and its shard
	// queues the whole of its share of the schedule. The window is ten
	// times the base one: under the race detector the first yield can
	// take longer than a millisecond, and a dispatcher that late admits
	// a one-millisecond schedule in one burst whatever it does.
	t.Run("native-tle/gomaxprocs1", func(t *testing.T) {
		cfg := base
		cfg.Window *= 10
		simCfg := cfg
		simCfg.Scheme = "tle"
		want := service.Run(simCfg).StoreCheck
		cfg.Scheme = "native-tle"
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		res := check(t, cfg, want)
		for i, st := range res.PerShard {
			if st.Arrivals > 1 && uint64(st.MaxQueue) >= st.Arrivals {
				t.Fatalf("shard %d queued all its %d requests at once: the server starved", i, st.Arrivals)
			}
		}
	})
	// One P, two servers per shard: shard 0's second server and both of
	// shard 1's park on their shard's condition variable, and the
	// frontend (shard 0's first server) must give the P up before it
	// sleeps whenever it has signalled one of them, or they wait behind
	// its sleeps and their shards queue the whole of their share of the
	// schedule. Two servers per shard apply requests in no fixed order,
	// so the store is not compared with the simulator's.
	t.Run("native-tle/gomaxprocs1/servers2", func(t *testing.T) {
		cfg := base
		cfg.Window *= 10
		cfg.Shards, cfg.Servers = 2, 2
		cfg.Scheme = "native-tle"
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		res := service.RunNative(native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.NativeMemWords()}), cfg)
		if uint64(res.Requests) != res.Arrivals {
			t.Fatalf("schedule length %d != arrivals %d", res.Requests, res.Arrivals)
		}
		for i, st := range res.PerShard {
			if st.Arrivals != st.Admitted+st.Shed {
				t.Fatalf("shard %d: arrivals %d != admitted %d + shed %d", i, st.Arrivals, st.Admitted, st.Shed)
			}
			if st.Admitted != st.Completed+st.DeadlineShed {
				t.Fatalf("shard %d: admitted %d != completed %d + deadline-shed %d",
					i, st.Admitted, st.Completed, st.DeadlineShed)
			}
			if st.Arrivals > 1 && uint64(st.MaxQueue) >= st.Arrivals {
				t.Fatalf("shard %d queued all its %d requests at once: its servers starved", i, st.Arrivals)
			}
		}
	})
}

// TestMemWordsHoldsEveryServicePut: a native trial of nothing but puts
// and deletes finishes on a world of exactly NativeMemWords words, at
// one shard with one server, four with one, and eight with two, with
// attempts fault-free and killed at random. The key range is so wide
// that every put is of an absent key and allocates, so a lone server
// fills its lane to the last node its shard's puts need; a lane too
// small panics in arena.Alloc.
func TestMemWordsHoldsEveryServicePut(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {4, 1}, {8, 2}} {
		for _, p := range []*fault.Profile{nil, {SpuriousAbortRate: 0.02}} {
			cfg := nativeConfBase()
			cfg.Scheme = "native-tle"
			cfg.Shards, cfg.Servers = shape[0], shape[1]
			cfg.KeyRange, cfg.UpdatePct, cfg.Fault = 1<<40, 100, p
			res := service.RunNative(native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.NativeMemWords()}), cfg)
			if res.Arrivals != uint64(res.Requests) || res.Arrivals != res.Admitted+res.Shed ||
				res.Admitted != res.Completed+res.DeadlineShed {
				t.Errorf("%dx%d, faults %v: %d requests, %d arrivals, %d admitted, %d shed, %d completed, %d deadline-shed",
					shape[0], shape[1], p != nil, res.Requests, res.Arrivals, res.Admitted, res.Shed, res.Completed, res.DeadlineShed)
			}
		}
	}
}

// TestNativePipelineHoldsNoMemoryPerRequest: a native trial pulls its
// arrivals from the stream, so what RunNative allocates does not grow
// with the schedule. Two trials at one rate, 2 k and 16 k requests, on
// one shard with one server, on worlds built outside the count, differ
// by under one byte of heap per extra request. A schedule built before
// the run costs 56 bytes per request. The key range is small enough
// that both trials end with every key stored, since the store
// checksum's walk holds a pair per stored key.
func TestNativePipelineHoldsNoMemoryPerRequest(t *testing.T) {
	alloc := func(requests int) (int, uint64) {
		const rate = 4e5
		cfg := service.Config{
			Seed: 1, Scheme: "native-tle", Shards: 1, Servers: 1, Rate: rate, KeyRange: 256,
			Window: vtime.Duration(float64(requests) / rate * float64(vtime.Second)),
		}
		w := native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.NativeMemWords()})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := service.RunNative(w, cfg)
		runtime.ReadMemStats(&after)
		return res.Requests, after.TotalAlloc - before.TotalAlloc
	}
	rs, few := alloc(2000)
	rl, many := alloc(16000)
	perReq := (float64(many) - float64(few)) / float64(rl-rs)
	if perReq >= 1 {
		t.Errorf("%d B for %d requests, %d B for %d: %.2f B per extra request", few, rs, many, rl, perReq)
	}
	t.Logf("%.3f B per extra request", perReq)
}

// runCounter is a native world that records the thread count of every
// Run.
type runCounter struct {
	*native.World
	runs []int
}

func (w *runCounter) Run(threads int, setup, body func(backend.Ctx)) {
	w.runs = append(w.runs, threads)
	w.World.Run(threads, setup, body)
}

// TestNativeServiceThreads: a native trial runs on exactly its servers,
// Shards*Servers of them, one of which is also the frontend, and every
// request is accounted for.
func TestNativeServiceThreads(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {4, 1}} {
		cfg := nativeConfBase()
		cfg.Scheme = "native-tle"
		cfg.Shards, cfg.Servers = shape[0], shape[1]
		w := &runCounter{World: native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.NativeMemWords()})}
		res := service.RunNative(w, cfg)
		if want := []int{shape[0] * shape[1]}; !slices.Equal(w.runs, want) {
			t.Errorf("%dx%d: World.Run thread counts %v, want %v", shape[0], shape[1], w.runs, want)
		}
		if res.Completed+res.Shed+res.DeadlineShed != uint64(res.Requests) {
			t.Errorf("%dx%d: %d completed and %d shed of %d requests", shape[0], shape[1], res.Completed, res.Shed+res.DeadlineShed, res.Requests)
		}
	}
}

// TestNativeServiceConservationUnderPressure: many servers per shard,
// a tight queue, and the overload stack the native backend inherits from
// the shared pipeline — requests race real goroutines, batches switch
// between Critical and Exclusive, and the ledgers must still balance
// exactly. How far the "overload" case degrades depends on the host. The
// "degraded" case does not: with one-request batches the ladder is the
// downgrade alone, every completion closes a 1ns window over its 1ps
// SLO, nothing is deadline-shed, and each shard is sure to admit more
// than the two batches that takes.
func TestNativeServiceConservationUnderPressure(t *testing.T) {
	always := &service.BrownoutConfig{SLO: 1, Window: vtime.Nanosecond, MinCount: 1}
	for _, tc := range []struct {
		name string
		arm  func(*service.Config)
	}{
		{"deadline", func(c *service.Config) { c.Deadline = 50 * vtime.Microsecond }},
		{"overload", func(c *service.Config) {
			c.Deadline = 50 * vtime.Microsecond
			c.Brownout = &service.BrownoutConfig{SLO: 20 * vtime.Microsecond}
			c.RetryBudget = 4
		}},
		{"degraded", func(c *service.Config) { c.Batch, c.Brownout = 1, always }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := nativeConfBase()
			cfg.Scheme = "native-tle"
			cfg.Rate = 1e6
			cfg.Servers = 2
			cfg.QueueCap = 8
			tc.arm(&cfg)
			w := native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.NativeMemWords()})
			res := service.RunNative(w, cfg)

			if res.Arrivals != res.Admitted+res.Shed {
				t.Fatalf("arrivals %d != admitted %d + shed %d", res.Arrivals, res.Admitted, res.Shed)
			}
			if res.Admitted != res.Completed+res.DeadlineShed {
				t.Fatalf("admitted %d != completed %d + deadline-shed %d", res.Admitted, res.Completed, res.DeadlineShed)
			}
			for i, st := range res.PerShard {
				if st.Arrivals != st.Admitted+st.Shed {
					t.Fatalf("shard %d: arrivals %d != admitted %d + shed %d", i, st.Arrivals, st.Admitted, st.Shed)
				}
				if st.Admitted != st.Completed+st.DeadlineShed {
					t.Fatalf("shard %d: admitted %d != completed %d + deadline-shed %d",
						i, st.Admitted, st.Completed, st.DeadlineShed)
				}
			}
			if res.Completed > 0 && res.Batches == 0 {
				t.Fatalf("%d completions in 0 batches", res.Completed)
			}
			if res.E2E.Count() != res.Completed {
				t.Fatalf("e2e histogram count %d != completed %d", res.E2E.Count(), res.Completed)
			}
			if res.DegradedBatches > res.Batches {
				t.Fatalf("%d degraded batches of %d", res.DegradedBatches, res.Batches)
			}
			ladder := 1 // the scheme downgrade, above one level per batch halving
			for b := res.Config.Batch; b > 1; b /= 2 {
				ladder++
			}
			if res.BrownoutPeak > ladder {
				t.Fatalf("brownout peak %d above the ladder's %d levels", res.BrownoutPeak, ladder)
			}
			switch tc.name {
			case "deadline":
				if res.DegradedBatches != 0 || res.Brownouts != 0 {
					t.Fatalf("overload control ran unarmed: %d degraded batches, %d transitions", res.DegradedBatches, res.Brownouts)
				}
			case "degraded":
				if res.BrownoutPeak != ladder || res.DegradedBatches == 0 {
					t.Fatalf("every window breaches, yet peak %d of %d and %d degraded batches",
						res.BrownoutPeak, ladder, res.DegradedBatches)
				}
			}
		})
	}
}

// TestRunNativeArmsFaults: Config.Fault means on the native host what
// it means on the simulator — certain stalls on every lock acquisition
// fire and are counted on the result — and the request ledgers still
// balance under them. A spurious abort on every access sends every
// batch to the fallback lock, so the stalls cannot miss.
func TestRunNativeArmsFaults(t *testing.T) {
	cfg := nativeConfBase()
	cfg.Scheme = "native-tle"
	cfg.Fault = &fault.Profile{StallProb: 1, StallLen: vtime.Microsecond, SpuriousAbortRate: 1}
	res := service.RunNative(native.NewWorld(native.Config{Seed: cfg.Seed, Words: cfg.NativeMemWords()}), cfg)
	if res.Fault.Stalls == 0 {
		t.Errorf("no stall reported under StallProb 1: %v", res.Fault)
	}
	if uint64(res.Requests) != res.Arrivals {
		t.Fatalf("schedule length %d != arrivals %d", res.Requests, res.Arrivals)
	}
	if res.Arrivals != res.Admitted+res.Shed {
		t.Fatalf("arrivals %d != admitted %d + shed %d", res.Arrivals, res.Admitted, res.Shed)
	}
	if res.Admitted != res.Completed+res.DeadlineShed {
		t.Fatalf("admitted %d != completed %d + deadline-shed %d", res.Admitted, res.Completed, res.DeadlineShed)
	}
	if res.E2E.Count() != res.Completed {
		t.Fatalf("e2e histogram count %d != completed %d", res.E2E.Count(), res.Completed)
	}
}

// TestRunNativeRejections: what the native host cannot honour must be
// refused loudly, not silently dropped — recorders (not wired natively
// yet) and anything that is not a native scheme on a native world.
func TestRunNativeRejections(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: RunNative did not panic", name)
			}
		}()
		f()
	}
	w := native.NewWorld(native.Config{})
	run := func(mut func(*service.Config)) func() {
		return func() {
			cfg := nativeConfBase()
			cfg.Scheme = "native-tle"
			mut(&cfg)
			service.RunNative(w, cfg)
		}
	}
	mustPanic("recorder", run(func(c *service.Config) { c.Recorder = telemetry.NewCollector(telemetry.Config{}) }))
	mustPanic("sim-scheme", run(func(c *service.Config) { c.Scheme = "tle" }))
	mustPanic("sim-world", func() {
		cfg := nativeConfBase()
		cfg.Scheme = "native-tle"
		service.RunNative(simWorldStub{}, cfg)
	})
}

type simWorldStub struct{}

func (simWorldStub) Kind() backend.Kind                            { return backend.Sim }
func (simWorldStub) Run(int, func(backend.Ctx), func(backend.Ctx)) {}
func (simWorldStub) Peek(int) uint64                               { return 0 }
