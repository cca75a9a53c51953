package service

import (
	"natle/internal/telemetry"
	"natle/internal/vtime"
)

// Overload control: the machinery that makes the service fail
// gracefully instead of collapsing when offered load exceeds
// capacity. Three cooperating mechanisms, all off by default:
//
//   - per-request deadlines (Config.Deadline): each scheduled request
//     carries a completion budget; servers shed queued requests whose
//     remaining budget can no longer cover the observed per-request
//     service time (CoDel-style queue-wait shedding — the store stops
//     burning capacity on requests that are already dead), counted as
//     DeadlineShed, separately from capacity sheds;
//   - a per-shard retry budget (Config.RetryBudget, tle.RetryBudget):
//     aborted hardware attempts spend tokens shared by all of a
//     shard's servers; a dry bucket runs batches degraded until the
//     next window refills it, so an abort storm cannot extract
//     unbounded wasted work;
//   - a brownout controller (Config.Brownout): a per-shard state
//     machine on the rolling e2e p99 that first shrinks the batch
//     size level by level and finally degrades the shard, then probes
//     its way back up once the window p99 holds under the SLO. Every
//     transition is emitted through telemetry (Recorder.Brownout).
//
// A degraded batch runs under the shard's own scheme instance taken
// pessimistically (scheme.Instance.Exclusive: the TLE fallback lock, the
// plain lock itself), never under a second lock beside it: elision is
// correct only while every non-speculative section holds the lock the
// transactions subscribe to, and natively an optimistic section
// validates only its own lock word.

// BrownoutConfig tunes the per-shard brownout controller. The zero
// value of every field selects the documented default.
type BrownoutConfig struct {
	// SLO is the rolling-p99 target on end-to-end latency; a decision
	// window whose p99 exceeds it degrades the shard one level
	// (default 1ms, the service SLO used by the bisection).
	SLO vtime.Duration
	// Window is the controller's decision interval (default 50µs). The
	// per-shard retry budget refills on the same interval.
	Window vtime.Duration
	// MinCount is the minimum completions a window needs before the
	// controller acts on its p99 (default 8; sparser windows carry no
	// signal and freeze the level).
	MinCount uint64
	// Hold is how many consecutive in-SLO windows a level is held
	// before the controller probes one level of recovery (default 2).
	Hold int
	// MinBatch is the batch-size floor of the degradation ladder
	// (default 1).
	MinBatch int
}

// withDefaults returns the config with zero fields resolved.
func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.SLO <= 0 {
		c.SLO = vtime.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 50 * vtime.Microsecond
	}
	if c.MinCount == 0 {
		c.MinCount = 8
	}
	if c.Hold <= 0 {
		c.Hold = 2
	}
	if c.MinBatch <= 0 {
		c.MinBatch = 1
	}
	return c
}

// brownout is one shard's controller. Level 0 is normal operation;
// levels 1..maxLevel-1 halve the batch size per level down to
// MinBatch; level maxLevel runs batches of MinBatch degraded. All state
// is host-side and mutated only under the shard lock.
type brownout struct {
	cfg      BrownoutConfig
	shard    int
	socket   int
	rec      telemetry.Recorder // defaulted to telemetry.Nop()
	maxLevel int

	level   int
	hold    int // in-SLO windows left before a recovery probe
	started bool
	winAt   vtime.Time                  // current window start
	last    telemetry.HistogramSnapshot // shard e2e at window start
}

// newBrownout builds the controller for one shard. cfg must already
// have defaults resolved; batch is the shard's configured batch size
// (the top of the degradation ladder).
func newBrownout(cfg BrownoutConfig, shard, socket, batch int, rec telemetry.Recorder) *brownout {
	levels := 0
	for b := batch; b > cfg.MinBatch; b /= 2 {
		levels++
	}
	b := &brownout{
		cfg:      cfg,
		shard:    shard,
		socket:   socket,
		rec:      telemetry.Nop(),
		maxLevel: levels + 1, // batch-halving levels, then the scheme downgrade
	}
	if rec != nil {
		b.rec = rec
	}
	return b
}

// batch returns the batch bound at the current level.
func (b *brownout) batch(base int) int {
	n := base >> b.level
	if n < b.cfg.MinBatch {
		n = b.cfg.MinBatch
	}
	return n
}

// degraded reports whether the shard has reached the ladder's floor:
// its batches run under its lock held pessimistically.
func (b *brownout) degraded() bool { return b.level == b.maxLevel }

// setLevel transitions to level to, emitting the move through
// telemetry and recording it in the shard stats.
func (b *brownout) setLevel(now vtime.Time, to int, st *ShardStats) {
	b.rec.Brownout(now, b.shard, b.socket, b.level, to)
	b.level = to
	st.Brownouts++
	if to > st.BrownoutPeak {
		st.BrownoutPeak = to
	}
}

// tick runs the controller: servers call it after every batch and on
// idle polls. At each Window boundary it takes the shard's e2e
// histogram delta; a p99 breach degrades one level, and Hold
// consecutive in-SLO windows earn a one-level recovery probe.
func (b *brownout) tick(now vtime.Time, h *telemetry.Histogram, st *ShardStats) {
	if !b.started {
		b.started = true
		b.winAt = now
		b.last = h.Snapshot()
		return
	}
	if now.Sub(b.winAt) < b.cfg.Window {
		return
	}
	snap := h.Snapshot()
	win := snap.Sub(b.last)
	b.winAt = now
	b.last = snap
	if win.Count() < b.cfg.MinCount {
		return
	}
	if win.Quantile(0.99) > b.cfg.SLO {
		if b.level < b.maxLevel {
			b.setLevel(now, b.level+1, st)
		}
		b.hold = b.cfg.Hold
		return
	}
	if b.level == 0 {
		return
	}
	if b.hold > 0 {
		b.hold--
		return
	}
	b.setLevel(now, b.level-1, st)
	b.hold = b.cfg.Hold
}
