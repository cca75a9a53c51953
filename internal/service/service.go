// Package service is the open-loop transactional key-value service:
// the production-scale counterpart of the closed-loop microbenchmarks.
//
// Where every other workload in this repository is closed-loop (N
// threads hammering a structure in a loop, throughput the only
// output), the service is driven by an arrival process on virtual
// time — Poisson, bursty, or diurnal (see arrival.go) — simulating
// millions of client requests per virtual second against a sharded
// KV store. Each shard is a hash map in simulated memory guarded by
// its own synchronization-scheme instance from the registry, so every
// "-lock" scheme (plain lock, TLE, NATLE, cohort, the hardened
// variants) is a drop-in per-shard primitive, exactly as the paper's
// drop-in-replacement claim promises.
//
// The pipeline is arrivals -> admission -> shards -> telemetry:
//
//   - a dispatcher thread replays the pre-generated schedule, routing
//     each request to its shard's bounded admission queue; a full
//     queue sheds the request (counted, never silently dropped);
//   - Servers server threads per shard drain its queue in batches of
//     up to Batch requests, executing each batch as one critical
//     section under the shard's scheme instance (so the shard lock is
//     genuinely contended, and eliding it genuinely pays);
//   - per-request end-to-end latency (queueing + service + every
//     transactional retry in between) lands in the telemetry log2
//     histograms, so results report p50/p99/p999 — not just
//     throughput.
//
// Everything runs on the deterministic simulator: a Result is a pure
// function of (Config, Seed), which the determinism and conservation
// tests assert, fault schedules included.
package service

import (
	"fmt"

	"natle/internal/backend"
	"natle/internal/cache"
	"natle/internal/fault"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/natle"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/simmap"
	"natle/internal/telemetry"
	"natle/internal/tle"
	"natle/internal/vtime"
)

// Config describes one service trial. The zero value of every field
// selects the documented default.
type Config struct {
	Prof *machine.Profile  // simulated machine (default LargeX52)
	Pin  machine.PinPolicy // server-thread placement (default FillSocketFirst)
	Seed int64             // schedule and simulator seed

	// Scheme names the per-shard synchronization primitive (any
	// registry name; default "tle"). Schemes without the Batch
	// capability have Batch clamped to 1 (see Result.BatchClamped).
	Scheme string
	TLE    tle.Policy    // retry policy for elision-based schemes
	NATLE  *natle.Config // nil selects natle.DefaultConfig

	// Arrival selects the open-loop arrival process (default poisson);
	// Rate is the time-averaged offered load in requests per virtual
	// second (default 1e6); Window is the arrival interval — requests
	// arrive in [0, Window) and the run drains afterwards.
	Arrival ArrivalKind
	Rate    float64
	Window  vtime.Duration

	// Bursty shape: mean on/off state lengths (defaults Window/16 and
	// Window/8) and the on-state rate multiplier (default 4).
	OnLen, OffLen vtime.Duration
	BurstFactor   float64

	// Diurnal shape: relative amplitude (default 0.8) and period
	// (default Window — one simulated "day" per trial).
	Amp    float64
	Period vtime.Duration

	Shards   int // KV shards (default 8)
	Servers  int // server threads per shard (default 2)
	QueueCap int // per-shard admission-queue bound (default 64)
	Batch    int // max requests per critical section (default 8)

	// WorkPerReq is the request-handler compute executed inside the
	// critical section, in external-work iterations (default 100, about
	// 200ns on the large machine). It models the read-modify-write
	// logic a real handler runs transactionally, and it is what gives
	// batches a footprint worth eliding: servers of one shard contend
	// on the shard lock, and the window they conflict over is this
	// handler time plus the map operation.
	WorkPerReq int

	KeyRange  uint64 // keys drawn uniformly from [0, KeyRange) (default 4096)
	UpdatePct int    // 0..100; updates split evenly between puts and deletes (default 50)

	// Deadline, when positive, attaches a completion budget to every
	// scheduled request, drawn uniformly in [Deadline/2, 3·Deadline/2)
	// by the schedule generator. Servers shed queued requests whose
	// remaining budget can no longer cover the observed per-request
	// service time (CoDel-style queue-wait shedding), counted as
	// DeadlineShed separately from capacity sheds; completions past
	// their budget count as DeadlineMiss. Zero disables deadlines and
	// leaves the schedule bytes untouched (see overload.go).
	Deadline vtime.Duration

	// Brownout, when non-nil, arms the per-shard brownout controller:
	// batch-size degradation and finally a scheme downgrade to the
	// mutual-exclusion baseline when the rolling e2e p99 breaches the
	// SLO, with recovery probing (see BrownoutConfig).
	Brownout *BrownoutConfig

	// RetryBudget, when positive, bounds transactional retries per
	// shard per decision window: aborted attempts spend tokens shared
	// by the shard's servers, and a dry bucket degrades the shard to
	// the mutual-exclusion baseline until the window rolls (see
	// tle.RetryBudget).
	RetryBudget int

	LogBuckets int // per-shard hash buckets = 1<<LogBuckets (default 8)

	// Fault, if non-nil and enabled, installs a deterministic fault
	// injector (seeded from Seed) for the whole trial — the chaos
	// schedules stress the service exactly as they stress the
	// microbenchmarks.
	Fault *fault.Profile

	// Recorder, if non-nil, receives the trial's telemetry events.
	// Nil keeps the no-op recorder (zero-cost contract).
	Recorder telemetry.Recorder

	MemWords int // simulated memory pre-size (grown on demand)
}

func (cfg *Config) defaults() {
	if cfg.Prof == nil {
		cfg.Prof = machine.LargeX52()
	}
	if cfg.Pin == nil {
		cfg.Pin = machine.FillSocketFirst{}
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "tle"
	}
	if cfg.TLE.Attempts == 0 {
		cfg.TLE = tle.TLE20()
	}
	if cfg.Arrival == "" {
		cfg.Arrival = ArrivalPoisson
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 1e6
	}
	if cfg.Window <= 0 {
		cfg.Window = 2 * vtime.Millisecond
	}
	if cfg.OnLen <= 0 {
		cfg.OnLen = cfg.Window / 16
	}
	if cfg.OffLen <= 0 {
		cfg.OffLen = cfg.Window / 8
	}
	if cfg.BurstFactor <= 0 {
		cfg.BurstFactor = 4
	}
	if cfg.Amp <= 0 {
		cfg.Amp = 0.8
	}
	if cfg.Period <= 0 {
		cfg.Period = cfg.Window
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	if cfg.WorkPerReq <= 0 {
		cfg.WorkPerReq = 100
	}
	if cfg.KeyRange == 0 {
		cfg.KeyRange = 4096
	}
	if cfg.UpdatePct < 0 {
		cfg.UpdatePct = 0
	}
	if cfg.UpdatePct == 0 {
		cfg.UpdatePct = 50
	}
	if cfg.LogBuckets <= 0 {
		cfg.LogBuckets = 8
	}
	if cfg.MemWords <= 0 {
		cfg.MemWords = 1 << 20
	}
}

// ShardStats is one shard's request accounting.
type ShardStats struct {
	Arrivals  uint64 // requests routed to this shard
	Admitted  uint64 // enqueued (queue had room)
	Shed      uint64 // dropped at admission (queue full)
	Completed uint64 // executed to completion
	Batches   uint64 // critical sections executed
	MaxQueue  int    // admission-queue high-water mark

	DeadlineShed    uint64 // admitted, then dropped in-queue on deadline budget
	DeadlineMiss    uint64 // completed past their deadline budget
	DegradedBatches uint64 // batches run under the mutual-exclusion downgrade
	Brownouts       uint64 // brownout level transitions
	RetryExhausted  uint64 // retry-budget windows that ran dry
	BrownoutPeak    int    // highest brownout level reached
}

// Result reports one service trial. Counters cover the whole run
// (arrival window plus drain); the conservation invariants
// Arrivals == Admitted + Shed and Admitted == Completed + DeadlineShed
// hold for every scheme under every fault schedule — admission
// shedding and in-queue deadline shedding are the only sanctioned
// losses (DeadlineShed is zero unless Config.Deadline is set).
type Result struct {
	Config   Config
	Requests int // schedule length (== Arrivals)

	Arrivals  uint64
	Admitted  uint64
	Shed      uint64
	Completed uint64
	Batches   uint64

	DeadlineShed    uint64
	DeadlineMiss    uint64
	DegradedBatches uint64
	Brownouts       uint64
	RetryExhausted  uint64
	BrownoutPeak    int

	PerShard []ShardStats

	// Latency distributions (telemetry log2 histograms): E2E is
	// arrival to completion, Queue is arrival to batch start, Service
	// is batch start to completion (retries included in all three).
	E2E     telemetry.HistogramSnapshot
	Queue   telemetry.HistogramSnapshot
	Service telemetry.HistogramSnapshot

	Start       vtime.Time // arrival clock base (post-construction)
	LastArrival vtime.Time // last scheduled arrival, relative to Start
	Drained     vtime.Time // last completion (absolute virtual time)

	// BatchClamped reports that the scheme lacks the Batch capability
	// and Config.Batch was forced to 1.
	BatchClamped bool

	// StoreCheck is the checksum of the final KV-store contents (FNV
	// over sorted key/value pairs; see storeChecksum). With one server
	// per shard and no shedding, each shard applies its request
	// subsequence in schedule order on every backend, so the sim and
	// native runs of one Config must agree — the cross-backend
	// conformance invariant for the service pipeline.
	StoreCheck uint64

	// Sync aggregates the per-shard scheme counters (field-wise sum of
	// the TLE counters; timelines stay per-shard). SyncPerShard keeps
	// each shard's full snapshot.
	Sync         scheme.Stats
	SyncPerShard []scheme.Stats

	HTM   htm.Stats
	Cache cache.Stats
	Fault fault.Stats

	// Telemetry is the recorder's roll-up when Config.Recorder is a
	// *telemetry.Collector (nil otherwise).
	Telemetry *telemetry.Summary
}

// OfferedRate returns the realized offered load in requests per
// virtual second of the arrival window.
func (r *Result) OfferedRate() float64 {
	if r.Config.Window <= 0 {
		return 0
	}
	return float64(r.Arrivals) / r.Config.Window.Seconds()
}

// CompletedRate returns completed requests per virtual second of the
// arrival window (goodput).
func (r *Result) CompletedRate() float64 {
	if r.Config.Window <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Config.Window.Seconds()
}

// ShedFraction returns the shed share of all arrivals.
func (r *Result) ShedFraction() float64 {
	if r.Arrivals == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Arrivals)
}

// DeadlineShedFraction returns the deadline-shed share of all
// arrivals (commensurable with ShedFraction: the two together are the
// total loss rate).
func (r *Result) DeadlineShedFraction() float64 {
	if r.Arrivals == 0 {
		return 0
	}
	return float64(r.DeadlineShed) / float64(r.Arrivals)
}

// DeadlineMissFraction returns the share of completed requests that
// finished past their deadline budget.
func (r *Result) DeadlineMissFraction() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.DeadlineMiss) / float64(r.Completed)
}

// pending is one admitted request waiting in a shard queue.
type pending struct {
	req Request
	at  vtime.Time // admission time (== arrival; admission is immediate)
}

// shardState is the host-side state of one shard (mutated only under
// the simulator's serialization token).
type shardState struct {
	m     *simmap.Map
	cs    scheme.Instance
	queue []pending
	stats ShardStats

	// Overload control (all nil/zero unless armed; see overload.go).
	deg        scheme.Instance  // mutual-exclusion downgrade instance
	bo         *brownout        // brownout controller
	budget     *tle.RetryBudget // shared retry budget
	e2e        telemetry.Histogram
	svcEst     vtime.Duration // EWMA of per-request service time
	lastAborts uint64         // scheme abort counter at last budget spend
}

// serverPoll is the idle-queue polling step of a shard server. It
// bounds how long a server sleeps past an enqueue, so it is part of
// the latency floor under light load.
const serverPoll = 500 * vtime.Nanosecond

// Run executes one service trial and returns its measurements.
func Run(cfg Config) *Result {
	cfg.defaults()
	desc, err := scheme.LookupFor(backend.Sim, cfg.Scheme)
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

	// Overload control (see overload.go): the brownout controller and
	// the retry budget both degrade to the backend's mutual-exclusion
	// baseline, constructed per shard only when armed so default
	// trials stay byte-identical with their pre-overload-control
	// selves.
	overload := cfg.Brownout != nil || cfg.RetryBudget > 0
	var degDesc *scheme.Descriptor
	if overload {
		degDesc, err = scheme.MutexFor(backend.Sim)
		if err != nil {
			panic(fmt.Sprintf("service: %v", err))
		}
	}
	boCfg := BrownoutConfig{}
	if cfg.Brownout != nil {
		boCfg = *cfg.Brownout
	}
	boCfg = boCfg.withDefaults()
	rec := cfg.Recorder
	if rec == nil {
		rec = telemetry.Nop()
	}

	sched := cfg.Schedule()
	res.Requests = len(sched)
	if len(sched) > 0 {
		res.LastArrival = sched[len(sched)-1].At
	}

	e := sim.New(cfg.Prof, cfg.Pin, cfg.Shards*cfg.Servers, cfg.Seed)
	sys := htm.NewSystem(e, cfg.MemWords)
	if cfg.Recorder != nil {
		// Installed before any locks exist so their RegisterLock calls
		// land in this recorder.
		sys.SetRecorder(cfg.Recorder)
	}
	var inj *fault.Fault
	if cfg.Fault != nil && cfg.Fault.Enabled() {
		inj = fault.New(*cfg.Fault, cfg.Seed)
		sys.SetInjector(inj)
	}

	var e2e, queueLat, svcLat telemetry.Histogram
	res.PerShard = make([]ShardStats, cfg.Shards)
	res.SyncPerShard = make([]scheme.Stats, cfg.Shards)

	e.Spawn(nil, func(c *sim.Ctx) {
		// Build the shards round-robin across sockets: shard i's
		// buckets and lock word are homed on socket i mod sockets, so
		// cross-socket traffic is part of the workload exactly as it
		// would be for a real NUMA-sharded store.
		shards := make([]*shardState, cfg.Shards)
		for i := range shards {
			socket := i % cfg.Prof.Sockets
			shards[i] = &shardState{
				m:  simmap.New(sys, c, cfg.LogBuckets, socket),
				cs: desc.New(sys, c, socket),
			}
			if overload {
				shards[i].deg = degDesc.New(sys, c, socket)
			}
			if cfg.Brownout != nil {
				shards[i].bo = newBrownout(boCfg, i, socket, cfg.Batch, rec)
			}
			if cfg.RetryBudget > 0 {
				shards[i].budget = tle.NewRetryBudget(cfg.RetryBudget, boCfg.Window)
			}
		}

		// Shared trial state (host-side; safe because execution is
		// serialized by the simulator token).
		closed := false
		var lastDone vtime.Time

		apply := func(w *sim.Ctx, s *shardState, q Request) {
			switch q.Op {
			case OpGet:
				s.m.Get(w, q.Key)
			case OpPut:
				s.m.Put(w, q.Key, q.Val)
			case OpDel:
				s.m.Delete(w, q.Key)
			case NumOps:
				panic("service: NumOps is not an operation")
			}
		}

		//natlevet:hotpath
		serve := func(w *sim.Ctx, s *shardState) {
			// One critical-section body per server, re-bound to each
			// batch through the captured slice: building the literal
			// inside the loop would heap-allocate a fresh closure per
			// batch served.
			var batch []pending
			body := func() { //natlevet:allow hotalloc(one closure per server lifetime, not per batch)
				for _, p := range batch {
					w.Work(cfg.WorkPerReq)
					apply(w, s, p.req)
				}
			}
			// The idle wait, likewise one closure per server: the queue has
			// work or the dispatcher is done. Every evaluation but the first
			// of a wait comes after one serverPoll of idling, and lets a
			// drained shard's brownout controller probe recovery. It runs on
			// the scheduler while the server is parked, so it only touches
			// host state.
			polled := false
			idle := func() bool { //natlevet:allow hotalloc(one closure per server lifetime, not per batch)
				if polled && s.bo != nil {
					s.bo.tick(w.Now(), &s.e2e, &s.stats)
				}
				polled = true
				return len(s.queue) > 0 || closed
			}
			for {
				if cfg.Deadline > 0 {
					// CoDel-style queue-wait shedding: drop queued
					// requests whose remaining budget can no longer
					// cover the observed per-request service time —
					// they are already dead, and executing them would
					// only delay requests that can still make it.
					now := w.Now()
					for len(s.queue) > 0 {
						p := s.queue[0]
						if now.Add(s.svcEst) <= p.at.Add(p.req.Deadline) {
							break
						}
						s.queue = s.queue[1:]
						s.stats.DeadlineShed++
					}
				}
				if len(s.queue) == 0 {
					polled = false
					w.WaitUntil(serverPoll, idle)
					if len(s.queue) == 0 {
						return // closed and drained
					}
					continue
				}
				n := cfg.Batch
				cs := s.cs
				if s.bo != nil {
					n = s.bo.batch(cfg.Batch)
					if s.bo.degraded() {
						cs = s.deg
					}
				}
				if s.budget != nil && !s.budget.Allow(w.Now()) {
					cs = s.deg
				}
				if n > len(s.queue) {
					n = len(s.queue)
				}
				batch = s.queue[:n:n]
				s.queue = s.queue[n:]
				start := w.Now()
				for _, p := range batch {
					queueLat.Observe(start.Sub(p.at))
				}
				// One critical section per batch: the body may be
				// retried transactionally, so it only touches simulated
				// memory (rolled back on abort). WorkPerReq models the
				// handler compute each request runs under the shard's
				// synchronization; aborted attempts re-pay it, exactly
				// as an elided section re-executes its body.
				cs.Critical(w, body)
				end := w.Now()
				svcLat.Observe(end.Sub(start))
				for _, p := range batch {
					d := end.Sub(p.at)
					e2e.Observe(d)
					if s.bo != nil {
						s.e2e.Observe(d)
					}
					if p.req.Deadline > 0 && d > p.req.Deadline {
						s.stats.DeadlineMiss++
					}
				}
				s.stats.Completed += uint64(n)
				s.stats.Batches++
				if cs != s.cs {
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
					st := s.cs.Stats().TLE
					if a := st.TotalAborts(); a > s.lastAborts {
						s.budget.Spend(end, a-s.lastAborts)
						s.lastAborts = a
					}
				}
				if s.bo != nil {
					s.bo.tick(end, &s.e2e, &s.stats)
				}
				if end > lastDone {
					lastDone = end
				}
			}
		}

		for i := range shards {
			s := shards[i]
			for j := 0; j < cfg.Servers; j++ {
				e.Spawn(c, func(w *sim.Ctx) { serve(w, s) })
			}
		}

		// The dispatcher models the network frontend: an event source
		// that does not contend for a core with the shard servers.
		c.SetIdle(true)

		// The schedule is replayed relative to the post-construction
		// clock: building the shards advanced the driver's virtual time,
		// and replaying absolute times would dump every "overdue"
		// arrival as one artificial burst at t=0.
		base := c.Now()
		res.Start = base
		for _, q := range sched {
			if gap := base.Add(vtime.Duration(q.At)).Sub(c.Now()); gap > 0 {
				c.AdvanceIdle(gap)
				c.Checkpoint()
			}
			s := shards[q.Shard]
			s.stats.Arrivals++
			if len(s.queue) >= cfg.QueueCap {
				s.stats.Shed++
				continue
			}
			s.queue = append(s.queue, pending{req: q, at: c.Now()})
			s.stats.Admitted++
			if len(s.queue) > s.stats.MaxQueue {
				s.stats.MaxQueue = len(s.queue)
			}
		}
		closed = true
		c.WaitOthers(vtime.Microsecond)

		for i, s := range shards {
			s.stats.RetryExhausted = s.budget.Exhausted()
			res.PerShard[i] = s.stats
			res.SyncPerShard[i] = s.cs.Stats()
		}
		res.Drained = lastDone

		// Final-contents checksum over raw memory: no simulated events,
		// so traces (and the pinned snapshots) are unaffected.
		var pairs [][2]uint64
		for _, s := range shards {
			s.m.RawEach(func(k, v uint64) { pairs = append(pairs, [2]uint64{k, v}) })
		}
		res.StoreCheck = storeChecksum(pairs)
	})
	e.Run()

	for _, st := range res.PerShard {
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
	}
	for _, s := range res.SyncPerShard {
		res.Sync.TLE = telemetry.Add(res.Sync.TLE, s.TLE)
	}
	res.E2E = e2e.Snapshot()
	res.Queue = queueLat.Snapshot()
	res.Service = svcLat.Snapshot()
	res.HTM = sys.Stats
	res.Cache = sys.Cache.Stats
	if col, ok := cfg.Recorder.(*telemetry.Collector); ok {
		sum := col.Summary()
		res.Telemetry = &sum
	}
	if inj != nil {
		res.Fault = inj.Stats
	}
	return res
}
