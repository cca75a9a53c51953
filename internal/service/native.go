package service

import (
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

// nativeHost hosts the pipeline on world: thread 0 dispatches, threads
// 1..Shards*Servers serve, and the shard maps are simmap.BackendMap
// arenas, so every store access is transactional under optimistic
// schemes exactly as on the simulator. Each shard's lock is a real mutex
// and idle servers park on its condition variable, and the dispatcher
// sleeps in the kernel between arrivals: nothing spins. Kernel timer
// slack groups the dispatcher's wake-ups, so one wake-up admits every
// arrival that came due meanwhile.
func nativeHost(world backend.World) func(*pipeline) {
	return func(p *pipeline) {
		cfg := &p.cfg
		threads := 1 + cfg.Shards*cfg.Servers
		seats := make([]nativeWorker, cfg.Shards)
		var zero int64 // backend clock at the end of setup
		world.Run(threads, func(c backend.Ctx) {
			// One arena lane per thread; each lane big enough for the
			// worst case of one server applying every scheduled insert.
			laneWords := len(p.sched)*simmap.NodeWords() + mem.WordsPerLine
			ar := arena.New(c, threads+1, laneWords)
			for i := range seats {
				w := &seats[i]
				w.m = simmap.NewBackendMap(c, ar, cfg.LogBuckets)
				w.cs = p.desc.NewNative(world, c)
				s := p.addShard(0, new(sync.Mutex), w.cs.Stats,
					func(fn func(key, val uint64)) { w.m.PeekEach(world, fn) })
				w.parked = &s.parked
			}
			zero = c.Now()
		}, func(c backend.Ctx) {
			if t := c.Thread(); t == 0 {
				p.dispatch(nativeWorker{c: c, zero: zero})
			} else {
				w := seats[(t-1)/cfg.Servers]
				w.c, w.zero = c, zero
				p.serve(w, p.shards[(t-1)/cfg.Servers])
			}
		})
	}
}

// nativeWorker is one native pipeline thread; the dispatcher's has no
// map, scheme instance or parking place.
type nativeWorker struct {
	c      backend.Ctx
	zero   int64
	m      *simmap.BackendMap
	cs     scheme.BackendInstance
	parked *sync.Cond
}

func (w nativeWorker) now() vtime.Time {
	return vtime.Time(w.c.Now()-w.zero) * vtime.Time(vtime.Nanosecond)
}

// sleepUntil blocks until now() >= t (see native.Thread.SleepUntil),
// rounding t up to the backend clock's whole nanoseconds.
func (w nativeWorker) sleepUntil(t vtime.Time) {
	ns := (t + vtime.Time(vtime.Nanosecond) - 1) / vtime.Time(vtime.Nanosecond)
	w.c.(*native.Thread).SleepUntil(w.zero + int64(ns))
}

func (w nativeWorker) work(n int)            { w.c.Work(n) }
func (w nativeWorker) apply(q Request)       { apply(w.m, w.c, q) }
func (w nativeWorker) critical(body func())  { w.cs.Critical(w.c, body) }
func (w nativeWorker) exclusive(body func()) { w.cs.Exclusive(w.c, body) }

func (w nativeWorker) wait(idle func() bool) {
	for !idle() {
		w.parked.Wait()
	}
}

// NativeMemWords returns the backend words a native world needs for
// this Config: the shard bucket arrays plus per-thread arena lanes
// each sized for the worst case of one server applying every
// scheduled insert (the bump allocator does not reuse deleted nodes).
func (cfg Config) NativeMemWords() int {
	cfg.defaults()
	sched := cfg.Schedule()
	threads := 1 + cfg.Shards*cfg.Servers
	laneWords := arena.RoundLine(len(sched)*simmap.NodeWords() + mem.WordsPerLine)
	words := (threads+1)*(laneWords+mem.WordsPerLine) +
		cfg.Shards*(1<<cfg.LogBuckets) +
		1<<16 // locks, slack
	if words < 1<<20 {
		words = 1 << 20
	}
	return words
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
