package service

import (
	"fmt"
	"sync"
	"sync/atomic"

	"natle/internal/backend"
	"natle/internal/scheme"
	"natle/internal/telemetry"
	"natle/internal/tle"
	"natle/internal/vtime"
)

// worker is one pipeline thread as its host (sim.go, native.go) runs
// it: a server of one shard, or the simulator's dispatcher (now and
// sleepUntil only). The seam is per request and per batch, so the
// per-word accesses underneath stay on the concrete arena.Sim /
// arena.Backend map cores.
type worker interface {
	now() vtime.Time // host clock: virtual time, or wall time since the end of setup
	// sleepUntil returns with now() >= t, late by however long the host
	// takes. yield asks the host to let a server that may be waiting for
	// this thread's processor run first.
	sleepUntil(t vtime.Time, yield bool)
	work(n int)      // one request's handler compute, inside a body
	apply(q Request) // one request's map operation, inside a body
	// critical runs body under the shard's scheme instance, exclusive
	// under that instance's own lock held pessimistically.
	critical(body func())
	exclusive(body func())
	// wait parks the server, which holds the shard lock, until idle
	// reports true; idle is only ever evaluated under that lock.
	wait(idle func() bool)
}

// kvMap is what apply needs of a shard map, over either context type.
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

// ring is a shard's bounded admission queue: a FIFO of at most limit
// requests whose buffer doubles up to that bound as the queue deepens,
// so a deep QueueCap costs memory only when it is used. A queued
// request's At is its scheduled arrival on the host clock, so a
// frontend that wakes up late shows as queue wait.
type ring struct {
	buf            []Request
	limit, head, n int
}

// push appends q; the caller has checked n < limit.
func (r *ring) push(q Request) {
	if r.n == len(r.buf) {
		buf := make([]Request, min(r.limit, max(8, 2*len(r.buf))))
		for i := range r.n {
			buf[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = q
	r.n++
}

func (r *ring) pop() Request {
	p := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return p
}

// shardState is the host-side state of one shard. mu guards all of it
// and is never held across a critical section; the simulator serializes
// execution already, so there mu is a no-op and nothing ever parks.
type shardState struct {
	mu        sync.Locker
	parked    sync.Cond                      // idle native servers, on mu
	sleepers  int                            // servers waiting on parked and not yet signalled
	asleep    *atomic.Int32                  // the pipeline's count of them over every shard
	syncStats func() scheme.Stats            // the shard's scheme counters
	each      func(fn func(key, val uint64)) // its map contents, after the run

	queue    ring
	closed   bool // the frontend has replayed the whole schedule
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
	shards []*shardState
	res    *Result
	asleep atomic.Int32 // servers parked and not yet signalled, over every shard

	e2e, queueLat, svcLat telemetry.Histogram
}

// newPipeline resolves cfg against backend kind's scheme registry.
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
	p.res = &Result{Config: cfg, BatchClamped: clamped}
	return p
}

// addShard installs the next shard over the host's lock, scheme counters
// and map walk. The overload controllers are built only when armed, so
// default trials stay byte-identical with their pre-overload-control
// selves.
func (p *pipeline) addShard(socket int, mu sync.Locker, syncStats func() scheme.Stats, each func(func(key, val uint64))) *shardState {
	s := &shardState{mu: mu, syncStats: syncStats, each: each, asleep: &p.asleep}
	s.parked.L = mu
	s.queue.limit = p.cfg.QueueCap
	if p.cfg.Brownout != nil {
		s.bo = newBrownout(p.boCfg, len(p.shards), socket, p.cfg.Batch, p.cfg.Recorder)
	}
	if p.cfg.RetryBudget > 0 {
		s.budget = tle.NewRetryBudget(p.cfg.RetryBudget, p.boCfg.Window)
	}
	p.shards = append(p.shards, s)
	return s
}

// frontend models the network frontend: it pulls the schedule from the
// arrival stream and replays it on the host clock, routing each request
// to its shard's bounded queue. The schedule is replayed relative to
// the post-construction clock: building the shards took host time, and
// replaying absolute times would dump every "overdue" arrival as one
// artificial burst at t=0.
type frontend struct {
	arr  arrivals
	next Request    // the next arrival to admit, pulled from arr
	more bool       // next holds an arrival; false once arr is exhausted
	base vtime.Time // the host clock the schedule's offsets count from
	done bool       // the whole schedule is admitted and every shard closed
	res  *Result    // counts Requests and LastArrival as they are pulled

	asleep *atomic.Int32 // parked servers, see pipeline.asleep
	others int32         // servers on threads other than the frontend's
}

// newFrontend starts the replay at now; others counts the servers that
// do not run on the frontend's thread.
func (p *pipeline) newFrontend(now vtime.Time, others int) *frontend {
	p.res.Start = now
	f := &frontend{arr: p.cfg.arrivals(), base: now, res: p.res, asleep: &p.asleep, others: int32(others)}
	f.pull()
	return f
}

// pull takes the next arrival off the stream.
func (f *frontend) pull() {
	if f.more = f.arr.next(&f.next); f.more {
		f.res.Requests++
		f.res.LastArrival = f.next.At
	}
}

// due returns the due time of the next arrival.
func (f *frontend) due() vtime.Time { return f.base.Add(vtime.Duration(f.next.At)) }

// sleep sleeps w until the next arrival is due. It yields first unless
// every other server is parked: one that is not could be waiting for
// the processor, whether it was just signalled or has not run yet.
func (f *frontend) sleep(w worker) {
	w.sleepUntil(f.due(), f.asleep.Load() < f.others)
}

// admit routes q to s, whose lock the caller holds: queued and stamped
// with due, or shed when the queue is full. The stamp is the due time,
// not the time of admission: a wake-up that lands late admits every
// arrival that came due meanwhile, and their wait counts from when they
// were due. An admitted request signals one parked server, if any.
func (s *shardState) admit(q Request, due vtime.Time) {
	s.stats.Arrivals++
	if s.queue.n == s.queue.limit {
		s.stats.Shed++
		return
	}
	q.At = due
	s.queue.push(q)
	s.stats.Admitted++
	s.stats.MaxQueue = max(s.stats.MaxQueue, s.queue.n)
	if s.sleepers > 0 {
		s.sleepers--
		s.asleep.Add(-1)
		s.parked.Signal()
	}
}

// park waits on s.parked until an admission or the close signals it;
// the caller holds s.mu. Only the native host parks servers.
func (s *shardState) park() {
	s.sleepers++
	s.asleep.Add(1)
	s.parked.Wait()
}

// admitDue admits, in schedule order, every arrival due by now; held is
// the shard whose lock the caller holds already, or nil. Once the whole
// schedule is admitted it closes every shard, and f is done.
func (p *pipeline) admitDue(f *frontend, now vtime.Time, held *shardState) {
	for ; f.more; f.pull() {
		due := f.due()
		if due > now {
			return
		}
		s := p.shards[f.next.Shard]
		if s != held {
			s.mu.Lock()
		}
		s.admit(f.next, due)
		if s != held {
			s.mu.Unlock()
		}
	}
	for _, s := range p.shards {
		if s != held {
			s.mu.Lock()
		}
		s.closed = true
		s.asleep.Add(-int32(s.sleepers))
		s.sleepers = 0
		s.parked.Broadcast()
		if s != held {
			s.mu.Unlock()
		}
	}
	f.done = true
}

// dispatch is a frontend on a thread of its own, as the simulator hosts
// it: it sleeps until each arrival is due and admits it. On the
// simulator the clock moves only in sleepUntil, so every stamp is the
// admission time, and arrivals due at one instant are admitted with no
// simulator call between them.
func (p *pipeline) dispatch(w worker) {
	f := p.newFrontend(w.now(), len(p.shards)*p.cfg.Servers)
	for {
		p.admitDue(f, w.now(), nil)
		if f.done {
			return
		}
		f.sleep(w)
	}
}

// serve is one shard server: it drains s's queue in batches of up to
// Batch requests, each batch one critical section, until the frontend
// is done and the queue is empty. A server given a frontend f (the
// native host's server 0 of shard 0) is the frontend too: at the top
// of every iteration it admits every arrival that has come due, and
// with its own queue empty it sleeps until the next one is due instead
// of parking, until the schedule is done.
func (p *pipeline) serve(w worker, s *shardState, f *frontend) {
	cfg := &p.cfg
	// One critical-section body per server, re-bound to each batch
	// through the captured slice: building the literal inside the loop
	// would heap-allocate a fresh closure per batch served.
	batch := make([]Request, max(cfg.Batch, p.boCfg.MinBatch))
	body := func() {
		for i := range batch {
			w.work(cfg.WorkPerReq)
			w.apply(batch[i])
		}
	}
	// The idle wait, likewise one closure per server: the queue has work
	// or the frontend is done. Every evaluation but the first of a wait
	// lets a drained shard's brownout controller probe recovery. On the
	// simulator it runs on the scheduler while the server is parked, so
	// it only touches host state.
	polled := false
	idle := func() bool {
		if polled && s.bo != nil {
			s.bo.tick(w.now(), &s.e2e, &s.stats)
		}
		polled = true
		return s.queue.n > 0 || s.closed
	}
	s.mu.Lock()
	for {
		if f != nil && !f.done {
			p.admitDue(f, w.now(), s)
		}
		if cfg.Deadline > 0 {
			// CoDel-style queue-wait shedding: drop queued requests
			// whose remaining budget can no longer cover the observed
			// per-request service time — they are already dead, and
			// executing them would only delay requests that can still
			// make it.
			now := w.now()
			for s.queue.n > 0 {
				q := &s.queue.buf[s.queue.head]
				if now.Add(s.svcEst) <= q.At.Add(q.Deadline) {
					break
				}
				s.queue.pop()
				s.stats.DeadlineShed++
			}
		}
		if s.queue.n == 0 {
			if f != nil && !f.done {
				s.mu.Unlock()
				f.sleep(w)
				s.mu.Lock()
				// As a parked server's wake-up does, the wake-up lets a
				// drained shard's brownout controller probe recovery.
				if s.bo != nil {
					s.bo.tick(w.now(), &s.e2e, &s.stats)
				}
				continue
			}
			polled = false
			w.wait(idle)
			if s.queue.n == 0 {
				s.mu.Unlock()
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
		batch = batch[:min(n, s.queue.n)]
		for i := range batch {
			batch[i] = s.queue.pop()
		}
		start := w.now()
		for i := range batch {
			p.queueLat.Observe(start.Sub(batch[i].At))
		}
		s.mu.Unlock()
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
		s.mu.Lock()
		p.svcLat.Observe(end.Sub(start))
		for i := range batch {
			q := &batch[i]
			d := end.Sub(q.At)
			p.e2e.Observe(d)
			if s.bo != nil {
				s.e2e.Observe(d)
			}
			if q.Deadline > 0 && d > q.Deadline {
				s.stats.DeadlineMiss++
			}
		}
		s.stats.Completed += uint64(len(batch))
		s.stats.Batches++
		if degraded {
			s.stats.DegradedBatches++
		}
		if cfg.Deadline > 0 {
			per := end.Sub(start) / vtime.Duration(len(batch))
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
		s.lastDone = max(s.lastDone, end)
	}
}

// run executes the trial on host, which builds the shards (addShard),
// runs serve on Config.Servers threads per shard and the frontend either
// on a thread of its own (dispatch) or in one of the servers, then
// merges the shard ledgers into the Result.
func (p *pipeline) run(host func(*pipeline)) *Result {
	host(p)
	res := p.res
	var pairs [][2]uint64
	for _, s := range p.shards {
		s.stats.RetryExhausted = s.budget.Exhausted()
		st, sy := s.stats, s.syncStats()
		res.PerShard = append(res.PerShard, st)
		res.SyncPerShard = append(res.SyncPerShard, sy)
		res.Sync.TLE = telemetry.Add(res.Sync.TLE, sy.TLE)
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
		res.BrownoutPeak = max(res.BrownoutPeak, st.BrownoutPeak)
		res.Drained = max(res.Drained, s.lastDone)
		s.each(func(k, v uint64) { pairs = append(pairs, [2]uint64{k, v}) })
	}
	res.StoreCheck = storeChecksum(pairs)
	res.E2E = p.e2e.Snapshot()
	res.Queue = p.queueLat.Snapshot()
	res.Service = p.svcLat.Snapshot()
	return res
}
