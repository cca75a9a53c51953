package service_test

import (
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

	for _, nat := range []string{"native-mutex", "native-tle", "native-natle"} {
		t.Run(nat, func(t *testing.T) {
			cfg := base
			cfg.Scheme = nat
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
			if res.StoreCheck != simRes.StoreCheck {
				t.Fatalf("final store diverges: sim %#x, %s %#x", simRes.StoreCheck, nat, res.StoreCheck)
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
		})
	}
}

// TestNativeServiceConservationUnderPressure: many servers per shard,
// a tight queue, and deadlines — requests race real goroutines, and
// the ledgers must still balance exactly.
func TestNativeServiceConservationUnderPressure(t *testing.T) {
	cfg := nativeConfBase()
	cfg.Scheme = "native-tle"
	cfg.Rate = 1e6
	cfg.Servers = 2
	cfg.QueueCap = 8
	cfg.Deadline = 50 * vtime.Microsecond
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
}

// TestRunNativeRejections: the sim-only machinery must be refused
// loudly, not silently dropped.
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
	mustPanic("brownout", run(func(c *service.Config) { c.Brownout = &service.BrownoutConfig{} }))
	mustPanic("retry-budget", run(func(c *service.Config) { c.RetryBudget = 10 }))
	mustPanic("fault", run(func(c *service.Config) {
		c.Fault = &fault.Profile{StallProb: 1, StallLen: vtime.Microsecond}
	}))
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
