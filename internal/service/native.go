package service

import (
	"fmt"
	"runtime"
	"sort"

	"natle/internal/arena"
	"natle/internal/backend"
	"natle/internal/mem"
	"natle/internal/scheme"
	"natle/internal/simmap"
	"natle/internal/telemetry"
	"natle/internal/vtime"
)

// RunNative executes one service trial on a native backend.World: the
// same arrivals -> admission -> shards -> telemetry pipeline as Run,
// but on real goroutines over real atomic words on wall-clock time.
// Thread 0 is the dispatcher, replaying the deterministic schedule
// against the wall clock; threads 1..Shards*Servers are shard servers
// draining bounded channel queues in batches, each batch one critical
// section under the shard's scheme instance (any native registry
// scheme). The shard stores are simmap.BackendMap arenas in backend
// words, so every store access is transactional under optimistic
// schemes exactly as on the simulator.
//
// Native results are measurements, not predictions: latency
// distributions vary run to run. What must NOT vary is the request
// accounting — the conservation invariants Arrivals == Admitted + Shed
// and Admitted == Completed + DeadlineShed hold exactly — and, with
// one server per shard and no shedding, the final store contents match
// the simulator's run of the same Config (Result.StoreCheck).
//
// The sim-only overload-control machinery (Brownout, RetryBudget),
// fault injection, and telemetry recorders are not supported here;
// RunNative panics rather than silently ignoring them.
func RunNative(w backend.World, cfg Config) *Result {
	if w.Kind() != backend.Native {
		panic(fmt.Sprintf("service: RunNative requires a native world, got %q", w.Kind()))
	}
	cfg.defaults()
	switch {
	case cfg.Brownout != nil:
		panic("service: Brownout is not supported on the native backend")
	case cfg.RetryBudget > 0:
		panic("service: RetryBudget is not supported on the native backend")
	case cfg.Fault != nil && cfg.Fault.Enabled():
		panic("service: fault injection is not supported on the native backend")
	case cfg.Recorder != nil:
		panic("service: telemetry recorders are not supported on the native backend")
	}
	desc, err := scheme.LookupFor(w.Kind(), cfg.Scheme)
	if err != nil {
		panic(fmt.Sprintf("service: %v", err))
	}
	desc = desc.Configure(scheme.Options{TLE: cfg.TLE, NATLE: cfg.NATLE})
	res := &Result{Config: cfg}
	if cfg.Batch > 1 && !desc.Batch {
		cfg.Batch = 1
		res.Config.Batch = 1
		res.BatchClamped = true
	}

	sched := cfg.Schedule()
	res.Requests = len(sched)
	if len(sched) > 0 {
		res.LastArrival = sched[len(sched)-1].At
	}

	threads := 1 + cfg.Shards*cfg.Servers

	// npending is one admitted request in flight to a server; at is the
	// admission wall-clock in backend nanoseconds.
	type npending struct {
		req Request
		at  int64
	}
	queues := make([]chan npending, cfg.Shards)
	for i := range queues {
		queues[i] = make(chan npending, cfg.QueueCap)
	}

	// serverState is one server thread's private ledger, merged after
	// the trial — servers of a shard share only the queue channel, the
	// store words, and the scheme instance.
	type serverState struct {
		stats    ShardStats // Completed/Batches/DeadlineShed/DeadlineMiss only
		e2e      telemetry.Histogram
		queue    telemetry.Histogram
		svc      telemetry.Histogram
		lastDone int64
	}
	servers := make([]*serverState, threads)
	for t := 1; t < threads; t++ {
		servers[t] = &serverState{}
	}
	// The dispatcher's admission ledger (thread 0 is the only writer).
	disp := make([]ShardStats, cfg.Shards)
	var baseNs int64

	maps := make([]*simmap.BackendMap, cfg.Shards)
	css := make([]scheme.BackendInstance, cfg.Shards)

	nsDur := func(ns int64) vtime.Duration { return vtime.Duration(ns) * vtime.Nanosecond }

	w.Run(threads, func(c backend.Ctx) {
		// One arena lane per thread; each lane big enough for the
		// worst case of one server applying every scheduled insert.
		laneWords := len(sched)*simmap.NodeWords() + mem.WordsPerLine
		ar := arena.New(c, threads+1, laneWords)
		for i := range maps {
			maps[i] = simmap.NewBackendMap(c, ar, cfg.LogBuckets)
			css[i] = desc.NewNative(w, c)
		}
	}, func(c backend.Ctx) {
		t := c.Thread()
		if t == 0 {
			// Dispatcher: replay the schedule against the wall clock,
			// spinning through the scheduler between arrivals so the
			// servers run even on few cores.
			base := c.Now()
			baseNs = base
			for _, q := range sched {
				target := base + int64(q.At)/int64(vtime.Nanosecond)
				for c.Now() < target {
					runtime.Gosched()
				}
				d := &disp[q.Shard]
				d.Arrivals++
				select {
				case queues[q.Shard] <- npending{req: q, at: c.Now()}:
					d.Admitted++
					if n := len(queues[q.Shard]); n > d.MaxQueue {
						d.MaxQueue = n
					}
				default:
					d.Shed++
				}
			}
			for _, ch := range queues {
				close(ch)
			}
			return
		}

		shard := (t - 1) / cfg.Servers
		ch := queues[shard]
		m := maps[shard]
		cs := css[shard]
		sv := servers[t]
		var svcEst int64 // per-request service-time EWMA, ns

		// Shed a queued request whose remaining deadline budget can no
		// longer cover the observed service time (the native mirror of
		// the sim path's CoDel-style queue-wait shedding).
		dead := func(p npending, now int64) bool {
			if p.req.Deadline <= 0 {
				return false
			}
			return now+svcEst > p.at+int64(p.req.Deadline)/int64(vtime.Nanosecond)
		}

		batch := make([]npending, 0, cfg.Batch)
		body := func() {
			for _, p := range batch {
				c.Work(cfg.WorkPerReq)
				switch p.req.Op {
				case OpGet:
					m.Get(c, p.req.Key)
				case OpPut:
					m.Put(c, p.req.Key, p.req.Val)
				case OpDel:
					m.Delete(c, p.req.Key)
				case NumOps:
					panic("service: NumOps is not an operation")
				}
			}
		}
		for {
			p, ok := <-ch
			if !ok {
				return
			}
			now := c.Now()
			if dead(p, now) {
				sv.stats.DeadlineShed++
				continue
			}
			batch = append(batch[:0], p)
		fill:
			for len(batch) < cfg.Batch {
				select {
				case p2, ok2 := <-ch:
					if !ok2 {
						break fill
					}
					if dead(p2, now) {
						sv.stats.DeadlineShed++
						continue
					}
					batch = append(batch, p2)
				default:
					break fill
				}
			}

			start := c.Now()
			for _, p := range batch {
				sv.queue.Observe(nsDur(start - p.at))
			}
			// One critical section per batch, as on the simulator: the
			// body may be retried by optimistic schemes, so it touches
			// only backend words (rolled back on abort) and re-pays the
			// handler compute on every attempt.
			cs.Critical(c, body)
			end := c.Now()
			sv.svc.Observe(nsDur(end - start))
			for _, p := range batch {
				d := end - p.at
				sv.e2e.Observe(nsDur(d))
				if p.req.Deadline > 0 && nsDur(d) > p.req.Deadline {
					sv.stats.DeadlineMiss++
				}
			}
			sv.stats.Completed += uint64(len(batch))
			sv.stats.Batches++
			if cfg.Deadline > 0 {
				per := (end - start) / int64(len(batch))
				if svcEst == 0 {
					svcEst = per
				} else {
					svcEst = (3*svcEst + per) / 4
				}
			}
			if end > sv.lastDone {
				sv.lastDone = end
			}
		}
	})

	// Merge the per-thread ledgers into the shared Result shape.
	var e2e, queueLat, svcLat telemetry.Histogram
	res.PerShard = make([]ShardStats, cfg.Shards)
	res.SyncPerShard = make([]scheme.Stats, cfg.Shards)
	var lastDone int64
	for i := range res.PerShard {
		res.PerShard[i] = disp[i]
		res.SyncPerShard[i] = css[i].Stats()
	}
	for t := 1; t < threads; t++ {
		sv := servers[t]
		st := &res.PerShard[(t-1)/cfg.Servers]
		st.Completed += sv.stats.Completed
		st.Batches += sv.stats.Batches
		st.DeadlineShed += sv.stats.DeadlineShed
		st.DeadlineMiss += sv.stats.DeadlineMiss
		e2e.Merge(&sv.e2e)
		queueLat.Merge(&sv.queue)
		svcLat.Merge(&sv.svc)
		if sv.lastDone > lastDone {
			lastDone = sv.lastDone
		}
	}
	for _, st := range res.PerShard {
		res.Arrivals += st.Arrivals
		res.Admitted += st.Admitted
		res.Shed += st.Shed
		res.Completed += st.Completed
		res.Batches += st.Batches
		res.DeadlineShed += st.DeadlineShed
		res.DeadlineMiss += st.DeadlineMiss
	}
	for _, s := range res.SyncPerShard {
		res.Sync.TLE = telemetry.Add(res.Sync.TLE, s.TLE)
	}
	res.E2E = e2e.Snapshot()
	res.Queue = queueLat.Snapshot()
	res.Service = svcLat.Snapshot()
	if lastDone > baseNs {
		res.Drained = vtime.Time(nsDur(lastDone - baseNs))
	}

	var pairs [][2]uint64
	for _, m := range maps {
		m.PeekEach(w, func(k, v uint64) { pairs = append(pairs, [2]uint64{k, v}) })
	}
	res.StoreCheck = storeChecksum(pairs)
	return res
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
