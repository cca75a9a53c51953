package main

import (
	"time"

	"natle/internal/arena"
	"natle/internal/backend"
	"natle/internal/cache"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/mem"
	"natle/internal/native"
	"natle/internal/scheme"
	"natle/internal/sets"
	"natle/internal/sim"
	"natle/internal/simmap"
	"natle/internal/telemetry"
	"natle/internal/vtime"
)

// The micro-kernels: each times one exported entry point of one layer
// in a tight loop, from outside, and reports the median host
// nanoseconds per call over a few repetitions. They say where a layer's
// time goes; they are not end-to-end numbers and carry no bound.

// kernelRun carries the repetition scale and collects the results.
type kernelRun struct {
	e     *env
	rep   *report
	reps  int // repetitions per kernel, the median is reported
	scale int // divisor of every iteration count (1 = full size)
	out   map[string]float64
}

func (k *kernelRun) n(full int) int { return max(full/k.scale, 16) }

// timed records one kernel under name, in ns per call: fn performs n
// calls and returns how long they took.
func (k *kernelRun) timed(name string, n int, fn func(n int) time.Duration) {
	sp := k.e.tr.begin("kernel:" + name)
	v := make([]float64, k.reps)
	for i := range v {
		v[i] = float64(fn(n)) / float64(n)
	}
	k.out[name] = median(v)
	k.e.tr.end(sp)
	sp.count("ns_per_call", k.out[name])
	sp.count("calls", float64(n*k.reps))
}

// loop times n calls of op.
func loop(n int, op func(i int)) time.Duration {
	t := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return time.Since(t)
}

// runKernels fills out with every K-sourced per-layer metric.
func runKernels(e *env, rep *report, out map[string]float64) {
	k := &kernelRun{e: e, rep: rep, reps: 5, scale: 1, out: out}
	if e.quick {
		k.reps, k.scale = 1, 100
	}
	k.simKernels()
	k.cacheKernels()
	k.htmKernels()
	k.nativeKernels()
	k.telemetryKernels()

	cfg := (&simService{}).config(e)
	k.timed("service.schedule_ns_per_req", len(cfg.Schedule()), func(int) time.Duration {
		t := time.Now()
		cfg.Schedule()
		return time.Since(t)
	})
}

// simKernels times the simulator's token handoff and thread creation.
func (k *kernelRun) simKernels() {
	defer k.e.onePForSim()()
	prof := machine.LargeX52()
	// Every thread advances by more than the engine's slack before each
	// checkpoint, so each Checkpoint call hands the token to another
	// goroutine: the kernel isolates the handoff the roadmap wants
	// replaced, not the early-return path.
	step := 150 * vtime.Nanosecond
	for _, c := range []struct {
		name    string
		threads int
	}{{"sim.checkpoint_ns_72t", 72}, {"sim.checkpoint_ns_2t", 2}} {
		steps := k.n(40_000) / c.threads
		k.timed(c.name, steps*c.threads, func(int) time.Duration {
			eng := sim.New(prof, nil, c.threads, k.e.seed)
			for i := 0; i < c.threads; i++ {
				eng.Spawn(nil, func(x *sim.Ctx) {
					for j := 0; j < steps; j++ {
						x.Advance(step)
						x.Checkpoint()
					}
				})
			}
			t := time.Now()
			eng.Run()
			return time.Since(t)
		})
	}
	spawns := 72
	k.timed("sim.spawn_us", spawns, func(n int) time.Duration {
		eng := sim.New(prof, nil, n, k.e.seed)
		t := time.Now()
		for i := 0; i < n; i++ {
			eng.Spawn(nil, func(*sim.Ctx) {})
		}
		eng.Run()
		return time.Since(t)
	})
	k.out["sim.spawn_us"] /= 1e3 // the one kernel reported in microseconds
}

// cacheKernels times Model.Access on three access patterns and checks,
// through the model's own counters, that each pattern still takes the
// path it is named after.
func (k *kernelRun) cacheKernels() {
	p := machine.LargeX52()
	remoteCore := p.CoresPerSocket // first core of socket 1
	sets := int32(p.PrivateCacheSets)
	pattern := func(name string, n int, hits func(cache.Stats) uint64, access func(m *cache.Model, now vtime.Time, i int) vtime.Duration) {
		k.timed(name, n, func(n int) time.Duration {
			m := cache.New(p)
			m.EnsureLines(int(2*sets) + 64)
			var now vtime.Time
			for i := 0; i < 128; i++ { // warm the lines the pattern revisits
				now = now.Add(access(m, now, i))
			}
			before := m.Stats
			t := time.Now()
			for i := 0; i < n; i++ {
				now = now.Add(access(m, now, i))
			}
			d := time.Since(t)
			if got := hits(m.Stats.Sub(before)); got != uint64(n) {
				k.rep.fail(0, "%s: %d of %d accesses took the named path; the access pattern no longer fits the model", name, got, n)
			}
			return d
		})
	}
	// One core re-reads 64 lines it holds privately.
	pattern("cache.access_l1_ns", k.n(400_000), func(s cache.Stats) uint64 { return s.L1Hits },
		func(m *cache.Model, now vtime.Time, i int) vtime.Duration {
			return m.Access(now, 0, 0, 0, int32(i&63), false)
		})
	// One core alternates between two lines that share a slot of its
	// direct-mapped private cache: each read finds the tag evicted and
	// the socket still a sharer.
	pattern("cache.access_l3_ns", k.n(400_000), func(s cache.Stats) uint64 { return s.L3Hits },
		func(m *cache.Model, now vtime.Time, i int) vtime.Duration {
			return m.Access(now, 0, 0, 0, 1+int32(i&1)*sets, false)
		})
	// Two cores on different sockets take turns writing one line.
	pattern("cache.access_remote_ns", k.n(400_000), func(s cache.Stats) uint64 { return s.RemoteHits },
		func(m *cache.Model, now vtime.Time, i int) vtime.Duration {
			core := (i & 1) * remoteCore
			return m.Access(now, core, i&1, 0, 7, true)
		})
}

// htmKernels runs on one simulated thread (no handoff, no sibling),
// with a footprint well inside the transactional capacity. Per-access
// costs are the difference between a long and a short transaction, so
// begin and commit cancel.
func (k *kernelRun) htmKernels() {
	defer k.e.onePForSim()()
	const lines = 64
	eng := sim.New(machine.LargeX52(), nil, 1, k.e.seed)
	sys := htm.NewSystem(eng, 1<<16)
	eng.Spawn(nil, func(c *sim.Ctx) {
		base := sys.Alloc(c, lines*mem.WordsPerLine)
		addr := func(i int) mem.Addr { return base + mem.Addr((i%lines)*mem.WordsPerLine) }
		// tries times n transactions over body, each expected to end as
		// committed says.
		tries := func(n int, committed bool, body func()) time.Duration {
			wrong := 0
			d := loop(n, func(int) {
				if o := sys.Try(c, body); o.Committed != committed {
					wrong++
				}
			})
			if wrong > 0 {
				k.rep.fail(0, "htm kernel: %d of %d uncontended in-capacity transactions did not end with committed=%v", wrong, n, committed)
			}
			return d
		}
		reads := func(cnt int) func() {
			return func() {
				for i := 0; i < cnt; i++ {
					sys.Read(c, addr(i))
				}
			}
		}
		writes := func(cnt int) func() {
			return func() {
				for i := 0; i < cnt; i++ {
					sys.Write(c, addr(i), uint64(i))
				}
			}
		}
		n := k.n(20_000)
		k.timed("htm.try_commit_ns", n, func(n int) time.Duration { return tries(n, true, func() {}) })
		k.timed("htm.read_ns", n, func(n int) time.Duration {
			return (tries(n, true, reads(33)) - tries(n, true, reads(1))) / 32
		})
		k.timed("htm.write_ns", n, func(n int) time.Duration {
			return (tries(n, true, writes(33)) - tries(n, true, writes(1))) / 32
		})
		k.timed("htm.abort_ns", n, func(n int) time.Duration {
			return tries(n, false, func() { sys.Abort(c, htm.CodeExplicit) })
		})
		m := arena.Sim{Sys: sys, C: c}
		k.timed("arena.sim_load_ns", k.n(400_000), func(n int) time.Duration {
			return loop(n, func(i int) { m.Load(uint64(addr(i))) })
		})
	})
	eng.Run()
}

// nativeKernels runs on one goroutine of one native world: raw world
// words, the arena adapter, the AVL and hash-map cores without a lock,
// and each registered scheme's uncontended section.
func (k *kernelRun) nativeKernels() {
	const (
		lines    = 64
		keyRange = 2048
		half     = keyRange / 2 // prefilled even keys; also the odd keys an insert rep consumes
		mapKeys  = 4096
	)
	nLoad, nAlloc, nStruct, nSection := k.n(1_000_000), k.n(100_000), k.n(200_000), k.n(200_000)

	type built struct {
		cs  scheme.BackendInstance
		tag string
	}
	var (
		words int
		ar    *arena.Arena
		trees []*sets.BackendSet
		hm    *simmap.BackendMap
		insts []built
	)
	hashed := func(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15 ^ uint64(k.e.seed) }
	// perm visits [0, half) in a scattered order, each value once, so
	// trees grow balanced-ish and every timed insert finds its key absent.
	perm := func(i int) int64 { return int64((i*40503 + int(k.e.seed)) & (half - 1)) }
	// Lane 0 serves the set-up context, lane 1 the worker; both fit in
	// the larger of the two demands.
	lane := (k.reps+1)*keyRange*sets.InsertWords(sets.KindAVL) + mapKeys*simmap.NodeWords() +
		(k.reps*nAlloc+lines)*mem.WordsPerLine
	w := native.NewWorld(native.Config{Words: 2*lane + 1<<16, Seed: k.e.seed, Sockets: 2})
	w.Run(1, func(c backend.Ctx) {
		words = c.Alloc(lines * mem.WordsPerLine)
		ar = arena.New(c, 2, lane)
		// One prefilled tree per insert repetition (inserts consume the
		// absent keys) plus one for the lookups.
		for r := 0; r <= k.reps; r++ {
			s, err := sets.NewBackendSet(sets.KindAVL, c, ar)
			if err != nil {
				panic(err) // KindAVL is a known kind
			}
			for i := 0; i < half; i++ {
				s.Insert(c, 2*perm(i))
			}
			trees = append(trees, s)
		}
		hm = simmap.NewBackendMap(c, ar, 8)
		for i := 0; i < mapKeys/2; i++ {
			hm.Put(c, uint64(2*i), uint64(i))
		}
		for _, s := range resolveSchemeNames(k.e.out, nativeSchemes) {
			d, err := scheme.LookupFor(backend.Native, s.Name)
			if err != nil {
				panic(err) // resolveSchemeNames returned it as registered
			}
			insts = append(insts, built{d.NewNative(w, c), s.Tag})
		}
	}, func(c backend.Ctx) {
		word := func(i int) int { return words + (i%lines)*mem.WordsPerLine }
		k.timed("native.world_load_ns", nLoad, func(n int) time.Duration {
			return loop(n, func(i int) { c.Load(word(i)) })
		})
		k.timed("native.world_store_ns", nLoad, func(n int) time.Duration {
			return loop(n, func(i int) { c.Store(word(i), uint64(i)) })
		})
		m := arena.Bind(c, ar)
		k.timed("arena.backend_load_ns", nLoad, func(n int) time.Duration {
			return loop(n, func(i int) { m.Load(uint64(word(i))) })
		})
		k.timed("arena.backend_store_ns", nLoad, func(n int) time.Duration {
			return loop(n, func(i int) { m.Store(uint64(word(i)), uint64(i)) })
		})
		k.timed("arena.alloc_ns", nAlloc, func(n int) time.Duration {
			return loop(n, func(int) { m.Alloc(1) })
		})

		k.timed("sets.avl_contains_ns", nStruct, func(n int) time.Duration {
			return loop(n, func(i int) { trees[0].Contains(c, int64(hashed(i)%uint64(keyRange))) })
		})
		next := 1
		k.timed("sets.avl_insert_ns", half, func(n int) time.Duration {
			tree := trees[next]
			next++
			return loop(n, func(i int) { tree.Insert(c, 2*perm(i)+1) })
		})
		k.timed("simmap.get_ns", nStruct, func(n int) time.Duration {
			return loop(n, func(i int) { hm.Get(c, hashed(i)%mapKeys) })
		})
		k.timed("simmap.put_ns", nStruct, func(n int) time.Duration {
			return loop(n, func(i int) { hm.Put(c, hashed(i)%mapKeys, uint64(i)) })
		})

		a, b := word(1), word(2)
		c.Store(a, 0)
		c.Store(b, 0)
		update := func() {
			c.Store(a, c.Load(a)+1)
			c.Store(b, c.Load(b)+1)
		}
		loads := func(cnt int) func() {
			return func() {
				for i := 0; i < cnt; i++ {
					c.Load(word(i))
				}
			}
		}
		one, many := loads(1), loads(lines)
		for _, in := range insts {
			cs := in.cs
			k.timed("native."+in.tag+".section_ns_1t", nSection, func(n int) time.Duration {
				return loop(n, func(int) { cs.Critical(c, update) })
			})
			k.timed("native."+in.tag+".load_ns", nSection/4, func(n int) time.Duration {
				long := loop(n, func(int) { cs.Critical(c, many) })
				short := loop(n, func(int) { cs.Critical(c, one) })
				return (long - short) / (lines - 1)
			})
		}
	})
	want := uint64(len(insts) * nSection * k.reps)
	if a, b := w.Peek(words+mem.WordsPerLine), w.Peek(words+2*mem.WordsPerLine); a != want || b != want {
		k.rep.fail(0, "native section kernel: %d uncontended sections left the two words at %d and %d", want, a, b)
	}
}

// telemetryKernels times the recorder calls the simulator makes per
// transaction; the budget row for native telemetry.
func (k *kernelRun) telemetryKernels() {
	n := k.n(1_000_000)
	var h telemetry.Histogram
	k.timed("telemetry.observe_ns", n, func(n int) time.Duration {
		return loop(n, func(i int) { h.Observe(vtime.Duration(i&0xffff) * vtime.Nanosecond) })
	})
	col := telemetry.Default()
	lock := col.RegisterLock("bench")
	k.timed("telemetry.txcommit_ns", n, func(n int) time.Duration {
		return loop(n, func(i int) { col.TxCommit(vtime.Time(i), i&63, i&1, lock, vtime.Duration(i&0xffff), 8, 2) })
	})
	if got := col.Commits(); got != uint64(n*k.reps) {
		k.rep.fail(0, "telemetry kernel: collector counted %d commits, %d were recorded", got, n*k.reps)
	}
}
