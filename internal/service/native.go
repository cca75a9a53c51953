package service

import (
	"runtime"
	"slices"
	"sort"
	"sync"

	"natle/internal/arena"
	"natle/internal/backend"
	"natle/internal/fault"
	"natle/internal/mem"
	"natle/internal/native"
	"natle/internal/scheme"
	"natle/internal/simmap"
	"natle/internal/vtime"
)

// RunNative executes one service trial on a native backend.World, under
// any native registry scheme.
//
// Native results are measurements, not predictions: latency
// distributions vary run to run. What must NOT vary is the request
// accounting — the conservation invariants Arrivals == Admitted + Shed
// and Admitted == Completed + DeadlineShed hold exactly — and, with
// one server per shard and no shedding, the final store contents match
// the simulator's run of the same Config (Result.StoreCheck).
//
// Telemetry recorders are not wired natively yet; RunNative panics
// rather than silently ignoring one.
func RunNative(w backend.World, cfg Config) *Result {
	switch {
	case w.Kind() != backend.Native:
		panic("service: RunNative requires a native world, got " + string(w.Kind()))
	case cfg.Recorder != nil:
		panic("service: telemetry recorders are not supported on the native backend")
	}
	faults := fault.Arm(w, cfg.Fault)
	res := newPipeline(backend.Native, cfg).run(nativeHost(w))
	if faults != nil {
		res.Fault = faults.FaultStats()
	}
	return res
}

// nativeHost hosts the pipeline on world: Shards*Servers threads,
// Servers per shard, and the shard maps are simmap.BackendMap arenas,
// so every store access is transactional under optimistic schemes
// exactly as on the simulator. Each shard's lock is a real mutex.
// Thread 0, server 0 of shard 0, is also the frontend (see serve): it
// sleeps in the kernel until the next arrival is due, and kernel timer
// slack groups its wake-ups, so one wake-up admits every arrival that
// came due meanwhile; every other idle server parks on its shard's
// condition variable until an admission signals it. Nothing spins.
// Before it sleeps, the frontend yields the processor only if some
// other server is not parked (frontend.sleep), so one shard with one
// server never yields: each wake-up is one kernel sleep, with no
// hand-off between threads.
func nativeHost(world backend.World) func(*pipeline) {
	return func(p *pipeline) {
		cfg := &p.cfg
		threads := cfg.Shards * cfg.Servers
		seats := make([]nativeWorker, cfg.Shards)
		var zero int64 // backend clock at the end of setup
		world.Run(threads, func(c backend.Ctx) {
			// One arena lane per thread plus the setup context's.
			ar := arena.New(c, threads+1, laneWords(*cfg))
			for i := range seats {
				w := &seats[i]
				w.m = simmap.NewBackendMap(c, ar, cfg.LogBuckets)
				w.cs = p.desc.NewNative(world, c)
				w.s = p.addShard(0, new(sync.Mutex), w.cs.Stats,
					func(fn func(key, val uint64)) { w.m.PeekEach(world, fn) })
			}
			zero = c.Now()
		}, func(c backend.Ctx) {
			t := c.Thread()
			w := seats[t/cfg.Servers]
			w.c, w.zero = c, zero
			var f *frontend
			if t == 0 {
				f = p.newFrontend(w.now(), threads-1)
			}
			p.serve(w, w.s, f)
		})
	}
}

// nativeWorker is one native pipeline thread, a server of shard s.
type nativeWorker struct {
	c    backend.Ctx
	zero int64
	m    *simmap.BackendMap
	cs   scheme.BackendInstance
	s    *shardState
}

func (w nativeWorker) now() vtime.Time {
	return vtime.Time(w.c.Now()-w.zero) * vtime.Time(vtime.Nanosecond)
}

// sleepUntil blocks in the kernel until now() >= t (see
// native.Thread.SleepUntil), rounding t up to the backend clock's whole
// nanoseconds. A goroutine keeps its processor while in nanosleep until
// the runtime takes it back, so a server waiting for that processor
// would wait behind the sleep: yield gives the processor up first.
func (w nativeWorker) sleepUntil(t vtime.Time, yield bool) {
	if yield {
		runtime.Gosched()
	}
	ns := (t + vtime.Time(vtime.Nanosecond) - 1) / vtime.Time(vtime.Nanosecond)
	w.c.(*native.Thread).SleepUntil(w.zero + int64(ns))
}

func (w nativeWorker) work(n int)            { w.c.Work(n) }
func (w nativeWorker) apply(q Request)       { apply(w.m, w.c, q) }
func (w nativeWorker) critical(body func())  { w.cs.Critical(w.c, body) }
func (w nativeWorker) exclusive(body func()) { w.cs.Exclusive(w.c, body) }

func (w nativeWorker) wait(idle func() bool) {
	for !idle() {
		w.s.park()
	}
}

// NativeMemWords returns the backend words a native world needs for
// this Config: the shard bucket arrays plus one arena lane per server
// thread and one for setup, each of laneWords, the size nativeHost
// builds its arena with. There is no floor: a small schedule gets a
// small world.
func (cfg Config) NativeMemWords() int {
	cfg.defaults()
	threads := cfg.Shards * cfg.Servers
	return (threads+1)*(laneWords(cfg)+mem.WordsPerLine) +
		cfg.Shards*(1<<cfg.LogBuckets) +
		1<<16 // locks, slack
}

// laneWords is the arena lane of a native service world, the one size
// both NativeMemWords and nativeHost use: room for the most puts the
// schedule routes to any one shard (counted in one pass over the
// arrival stream), since any server of that shard may be the one that
// applies all of them. The schedule bounds what a lane hands out
// because only a put of an absent key allocates (a get or a delete
// never does, and each request is applied once), and an allocation an
// attempt does not commit is not kept: a dead attempt drops its cursor
// store, and an upgraded writer never dies.
func laneWords(cfg Config) int {
	return max(slices.Max(cfg.putsPerShard()), 1) * simmap.NodeWords() // arena.New wants a word
}

// storeChecksum hashes final KV contents: FNV-1a over the (key, value)
// pairs in key order, folded with the pair count. Keys are unique
// across shards (each key routes to exactly one shard), so the global
// sort gives one canonical order on every backend.
func storeChecksum(pairs [][2]uint64) uint64 {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	h := uint64(1469598103934665603)
	for _, p := range pairs {
		h = (h ^ p[0]) * 1099511628211
		h = (h ^ p[1]) * 1099511628211
	}
	return h ^ uint64(len(pairs))*0x9e3779b97f4a7c15
}
