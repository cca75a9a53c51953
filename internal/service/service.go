// Package service is the open-loop transactional key-value service:
// the production-scale counterpart of the closed-loop microbenchmarks.
//
// Where every other workload in this repository is closed-loop (N
// threads hammering a structure in a loop, throughput the only
// output), the service is driven by an arrival process — Poisson,
// bursty, or diurnal (see arrival.go) — offering millions of client
// requests per second against a sharded KV store. Each shard is a hash
// map guarded by its own synchronization-scheme instance from the
// registry, so every "-lock" scheme (plain lock, TLE, NATLE, cohort,
// the hardened variants, the native mirrors) is a drop-in per-shard
// primitive, exactly as the paper's drop-in-replacement claim promises.
//
// The pipeline is arrivals -> admission -> shards -> telemetry:
//
//   - a frontend pulls the schedule from the arrival stream one
//     request at a time, routing each to its shard's bounded admission
//     queue; a full queue sheds the request (counted, never silently
//     dropped). On the simulator it is a dispatcher thread of its own;
//     natively it is server 0 of shard 0, admitting between batches
//     and sleeping in the kernel until the next arrival when its queue
//     is empty;
//   - Servers server threads per shard drain its queue in batches of
//     up to Batch requests, executing each batch as one critical
//     section under the shard's scheme instance (so the shard lock is
//     genuinely contended, and eliding it genuinely pays);
//   - per-request end-to-end latency (queueing + service + every
//     transactional retry in between) lands in the telemetry log2
//     histograms, so results report p50/p99/p999 — not just
//     throughput.
//
// The pipeline is written once (pipeline.go) and hosted twice. Run
// hosts it on the deterministic simulator: a Result is a pure function
// of (Config, Seed), fault schedules included, which the determinism
// tests assert. RunNative hosts it on a backend.World of real
// goroutines on the wall clock, where latencies are measurements and
// only the request accounting is exact. Overload control is pipeline
// code, so both hosts have it.
package service

import (
	"natle/internal/cache"
	"natle/internal/fault"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/natle"
	"natle/internal/scheme"
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
	UpdatePct int    // 1..100, or negative for read-only; updates split evenly between puts and deletes (default 50)

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
	// batch-size degradation and finally a downgrade to the scheme's own
	// lock held pessimistically when the rolling e2e p99 breaches the
	// SLO, with recovery probing (see BrownoutConfig).
	Brownout *BrownoutConfig

	// RetryBudget, when positive, bounds transactional retries per
	// shard per decision window: aborted attempts spend tokens shared
	// by the shard's servers, and a dry bucket runs the shard's batches
	// under its lock held pessimistically until the window rolls (see
	// tle.RetryBudget).
	RetryBudget int

	LogBuckets int // per-shard hash buckets = 1<<LogBuckets (default 8)

	// Fault, if non-nil and enabled, arms these faults on the trial's
	// world for the whole trial, setup included; the result's Fault
	// counts what was injected (see internal/fault).
	Fault *fault.Profile

	// Recorder, if non-nil, receives the trial's telemetry events.
	// Nil keeps the no-op recorder (zero-cost contract). Sim only.
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
	DegradedBatches uint64 // batches run under the shard's lock held pessimistically
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
	Requests int // schedule length, counted as the frontend pulls it (== Arrivals)

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
	// Arrival is the scheduled one on both hosts, so a frontend that
	// admits a request late adds the lateness to E2E and Queue.
	E2E     telemetry.HistogramSnapshot
	Queue   telemetry.HistogramSnapshot
	Service telemetry.HistogramSnapshot

	// Start (the frontend begins replaying the schedule) and Drained
	// (the last batch completes) are read off the host clock: virtual
	// time since the engine started, shard construction included; natively
	// wall time since the end of setup, so Start is ~0 and Drained is in
	// effect the length of the timed run.
	Start       vtime.Time
	LastArrival vtime.Time // last scheduled arrival, relative to Start
	Drained     vtime.Time

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
