package service

import (
	"fmt"
	"sync"

	"natle/internal/backend"
	"natle/internal/scheme"
	"natle/internal/telemetry"
	"natle/internal/tle"
	"natle/internal/vtime"
)

// The pipeline is written once, against the seam below, and hosted
// twice: by the simulator (sim.go) and by a backend.World of real
// goroutines (native.go). The seam sits at request and batch
// granularity — a worker applies one request or runs one batch per
// call — so the per-word accesses underneath stay on the concrete
// arena.Sim / arena.Backend types of the map cores.

// host runs a pipeline: it builds one store per shard (p.addShard),
// then runs p.dispatch on one thread and p.serve on Config.Servers
// threads per shard, and returns once all of them have.
type host interface {
	run(p *pipeline)
}

// store is the host's half of one shard. Its lock guards everything in
// shardState — the queue, the ledger and the overload controller — and
// is never held across a critical section. On the simulator execution
// is serialized already, so the lock and the wake-up are no-ops.
type store interface {
	sync.Locker
	// wake resumes one parked server of the shard, or all of them.
	wake(all bool)
	// syncStats and each read the shard's scheme counters and final map
	// contents after the run.
	syncStats() scheme.Stats
	each(fn func(key, val uint64))
}

// worker is one pipeline thread as its host runs it: the dispatcher
// (now and sleepUntil only) or a server bound to its shard's store.
type worker interface {
	// now reads the host clock: virtual time on the simulator, wall
	// time since the end of setup natively.
	now() vtime.Time
	sleepUntil(t vtime.Time)
	// work burns the handler compute of one request and apply runs its
	// map operation, both inside the body of critical or exclusive.
	work(n int)
	apply(q Request)
	// critical runs body under the shard's scheme instance, exclusive
	// under that instance's own lock held pessimistically.
	critical(body func())
	exclusive(body func())
	// wait parks the calling server, which holds the shard lock, until
	// idle reports true. The host chooses when to re-evaluate idle (the
	// simulator every serverPoll, a native host after each wake) and
	// always does so with the lock held.
	wait(idle func() bool)
}

// kvMap is the shard-map surface apply needs, over either context type.
type kvMap[C any] interface {
	Get(c C, key uint64) (uint64, bool)
	Put(c C, key, val uint64) bool
	Delete(c C, key uint64) bool
}

// apply executes one request against a shard map.
func apply[C any, M kvMap[C]](m M, c C, q Request) {
	switch q.Op {
	case OpGet:
		m.Get(c, q.Key)
	case OpPut:
		m.Put(c, q.Key, q.Val)
	case OpDel:
		m.Delete(c, q.Key)
	case NumOps:
		panic("service: NumOps is not an operation")
	}
}

// pending is one admitted request waiting in a shard queue.
type pending struct {
	req Request
	at  vtime.Time // admission time (== arrival; admission is immediate)
}

// ring is a shard's bounded admission queue: a FIFO over QueueCap slots.
type ring struct {
	buf     []pending
	head, n int
}

func (r *ring) push(p pending) {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = p
	r.n++
}

func (r *ring) pop() pending {
	p := r.buf[r.head]
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return p
}

// shardState is the host-side state of one shard, guarded by its
// store's lock.
type shardState struct {
	store
	queue    ring
	closed   bool // the dispatcher has replayed the whole schedule
	stats    ShardStats
	lastDone vtime.Time // latest batch completion

	// Overload control (all nil/zero unless armed; see overload.go).
	bo         *brownout           // brownout controller
	budget     *tle.RetryBudget    // shared retry budget
	e2e        telemetry.Histogram // the controller's input
	svcEst     vtime.Duration      // EWMA of per-request service time
	lastAborts uint64              // scheme abort counter at last budget spend
}

// serverPoll is the idle-queue polling step of a simulated shard
// server. It bounds how long a server sleeps past an enqueue, so it is
// part of the latency floor under light load.
const serverPoll = 500 * vtime.Nanosecond

// pipeline is one trial in flight.
type pipeline struct {
	cfg    Config // defaults resolved, Batch clamped
	desc   *scheme.Descriptor
	boCfg  BrownoutConfig
	sched  []Request
	shards []*shardState
	res    *Result

	e2e, queueLat, svcLat telemetry.Histogram
}

// newPipeline resolves cfg against backend kind's scheme registry and
// generates the schedule.
func newPipeline(kind backend.Kind, cfg Config) *pipeline {
	cfg.defaults()
	desc, err := scheme.LookupFor(kind, cfg.Scheme)
	if err != nil {
		panic(fmt.Sprintf("service: %v", err))
	}
	p := &pipeline{desc: desc.Configure(scheme.Options{TLE: cfg.TLE, NATLE: cfg.NATLE})}
	clamped := cfg.Batch > 1 && !desc.Batch
	if clamped {
		cfg.Batch = 1
	}
	if cfg.Brownout != nil {
		p.boCfg = *cfg.Brownout
	}
	p.boCfg = p.boCfg.withDefaults()
	p.cfg = cfg
	p.sched = cfg.Schedule()
	p.shards = make([]*shardState, cfg.Shards)
	p.res = &Result{Config: cfg, Requests: len(p.sched), BatchClamped: clamped}
	if len(p.sched) > 0 {
		p.res.LastArrival = p.sched[len(p.sched)-1].At
	}
	return p
}

// addShard installs shard i over the host's store st. The overload
// controllers are built only when armed, so default trials stay
// byte-identical with their pre-overload-control selves.
func (p *pipeline) addShard(i, socket int, st store) {
	s := &shardState{store: st, queue: ring{buf: make([]pending, p.cfg.QueueCap)}}
	if p.cfg.Brownout != nil {
		s.bo = newBrownout(p.boCfg, i, socket, p.cfg.Batch, p.cfg.Recorder)
	}
	if p.cfg.RetryBudget > 0 {
		s.budget = tle.NewRetryBudget(p.cfg.RetryBudget, p.boCfg.Window)
	}
	p.shards[i] = s
}

// dispatch models the network frontend: it replays the schedule on the
// host clock, routing each request to its shard's bounded queue; a full
// queue sheds the request.
func (p *pipeline) dispatch(w worker) {
	// The schedule is replayed relative to the post-construction clock:
	// building the shards took host time, and replaying absolute times
	// would dump every "overdue" arrival as one artificial burst at t=0.
	base := w.now()
	p.res.Start = base
	for _, q := range p.sched {
		w.sleepUntil(base.Add(vtime.Duration(q.At)))
		s := p.shards[q.Shard]
		s.Lock()
		s.stats.Arrivals++
		if s.queue.n == len(s.queue.buf) {
			s.stats.Shed++
			s.Unlock()
			continue
		}
		s.queue.push(pending{req: q, at: w.now()})
		s.stats.Admitted++
		if s.queue.n > s.stats.MaxQueue {
			s.stats.MaxQueue = s.queue.n
		}
		s.Unlock()
		s.wake(false)
	}
	for _, s := range p.shards {
		s.Lock()
		s.closed = true
		s.Unlock()
		s.wake(true)
	}
}

// serve is one shard server: it drains s's queue in batches of up to
// Batch requests, each batch one critical section, until the dispatcher
// is done and the queue is empty.
//
//natlevet:hotpath
func (p *pipeline) serve(w worker, s *shardState) {
	cfg := &p.cfg
	// One critical-section body per server, re-bound to each batch
	// through the captured slice: building the literal inside the loop
	// would heap-allocate a fresh closure per batch served. The buffer
	// holds the largest batch the brownout ladder can ask for.
	batch := make([]pending, max(cfg.Batch, p.boCfg.MinBatch)) //natlevet:allow hotalloc(one buffer per server lifetime, not per batch)
	body := func() {                                           //natlevet:allow hotalloc(one closure per server lifetime, not per batch)
		for i := range batch {
			w.work(cfg.WorkPerReq)
			w.apply(batch[i].req)
		}
	}
	// The idle wait, likewise one closure per server: the queue has work
	// or the dispatcher is done. Every evaluation but the first of a wait
	// lets a drained shard's brownout controller probe recovery. On the
	// simulator it runs on the scheduler while the server is parked, so
	// it only touches host state.
	polled := false
	idle := func() bool { //natlevet:allow hotalloc(one closure per server lifetime, not per batch)
		if polled && s.bo != nil {
			s.bo.tick(w.now(), &s.e2e, &s.stats)
		}
		polled = true
		return s.queue.n > 0 || s.closed
	}
	s.Lock()
	for {
		if cfg.Deadline > 0 {
			// CoDel-style queue-wait shedding: drop queued requests
			// whose remaining budget can no longer cover the observed
			// per-request service time — they are already dead, and
			// executing them would only delay requests that can still
			// make it.
			now := w.now()
			for s.queue.n > 0 {
				q := &s.queue.buf[s.queue.head]
				if now.Add(s.svcEst) <= q.at.Add(q.req.Deadline) {
					break
				}
				s.queue.pop()
				s.stats.DeadlineShed++
			}
		}
		if s.queue.n == 0 {
			polled = false
			w.wait(idle)
			if s.queue.n == 0 {
				s.Unlock()
				return // closed and drained
			}
			continue
		}
		n := cfg.Batch
		degraded := false
		if s.bo != nil {
			n = s.bo.batch(cfg.Batch)
			degraded = s.bo.degraded()
		}
		if s.budget != nil && !s.budget.Allow(w.now()) {
			degraded = true
		}
		if n > s.queue.n {
			n = s.queue.n
		}
		batch = batch[:n]
		for i := range batch {
			batch[i] = s.queue.pop()
		}
		start := w.now()
		for i := range batch {
			p.queueLat.Observe(start.Sub(batch[i].at))
		}
		s.Unlock()
		// One critical section per batch: the body may be retried
		// transactionally, so it only touches the shard map (rolled back
		// on abort). WorkPerReq models the handler compute each request
		// runs under the shard's synchronization; aborted attempts re-pay
		// it, exactly as an elided section re-executes its body.
		if degraded {
			w.exclusive(body)
		} else {
			w.critical(body)
		}
		end := w.now()
		s.Lock()
		p.svcLat.Observe(end.Sub(start))
		for i := range batch {
			q := &batch[i]
			d := end.Sub(q.at)
			p.e2e.Observe(d)
			if s.bo != nil {
				s.e2e.Observe(d)
			}
			if q.req.Deadline > 0 && d > q.req.Deadline {
				s.stats.DeadlineMiss++
			}
		}
		s.stats.Completed += uint64(n)
		s.stats.Batches++
		if degraded {
			s.stats.DegradedBatches++
		}
		if cfg.Deadline > 0 {
			per := end.Sub(start) / vtime.Duration(n)
			if s.svcEst == 0 {
				s.svcEst = per
			} else {
				s.svcEst = (3*s.svcEst + per) / 4
			}
		}
		if s.budget != nil {
			st := s.syncStats().TLE
			if a := st.TotalAborts(); a > s.lastAborts {
				s.budget.Spend(end, a-s.lastAborts)
				s.lastAborts = a
			}
		}
		if s.bo != nil {
			s.bo.tick(end, &s.e2e, &s.stats)
		}
		if end > s.lastDone {
			s.lastDone = end
		}
	}
}

// run executes the trial on h and merges the shard ledgers into the
// Result.
func (p *pipeline) run(h host) *Result {
	h.run(p)
	res := p.res
	res.PerShard = make([]ShardStats, len(p.shards))
	res.SyncPerShard = make([]scheme.Stats, len(p.shards))
	var pairs [][2]uint64
	for i, s := range p.shards {
		s.stats.RetryExhausted = s.budget.Exhausted()
		st := s.stats
		res.PerShard[i] = st
		res.SyncPerShard[i] = s.syncStats()
		res.Sync.TLE = telemetry.Add(res.Sync.TLE, res.SyncPerShard[i].TLE)
		res.Arrivals += st.Arrivals
		res.Admitted += st.Admitted
		res.Shed += st.Shed
		res.Completed += st.Completed
		res.Batches += st.Batches
		res.DeadlineShed += st.DeadlineShed
		res.DeadlineMiss += st.DeadlineMiss
		res.DegradedBatches += st.DegradedBatches
		res.Brownouts += st.Brownouts
		res.RetryExhausted += st.RetryExhausted
		if st.BrownoutPeak > res.BrownoutPeak {
			res.BrownoutPeak = st.BrownoutPeak
		}
		if s.lastDone > res.Drained {
			res.Drained = s.lastDone
		}
		s.each(func(k, v uint64) { pairs = append(pairs, [2]uint64{k, v}) })
	}
	res.StoreCheck = storeChecksum(pairs)
	res.E2E = p.e2e.Snapshot()
	res.Queue = p.queueLat.Snapshot()
	res.Service = p.svcLat.Snapshot()
	return res
}
