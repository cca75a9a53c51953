// Package natle implements NATLE (NUMA-aware transactional lock
// elision), the adaptive throttling technique of the paper's Section 4.
//
// Each lock is augmented with a mode saying which threads may execute
// its critical sections: mode s (one per socket) admits only threads on
// socket s; the final mode admits everyone. Running time is divided
// into cycles: a profiling phase, split equally between the modes,
// measures how many critical sections each mode completes; the rest of
// the cycle is divided into quanta, each split between the fastest
// mode and the other socket's mode in proportion to their profiled
// throughput (or given entirely to the all-sockets mode if that
// profiled fastest).
//
// The implementation follows the paper's Figures 8-11 pseudocode
// structurally: the lock's lastProfStart field packs the profiling
// stage into its two low bits (0 = profiling on, counters not reset;
// 1 = counters reset; 2 = aggregation in progress; 3 = aggregated),
// and threads race through the stages with CAS. The acquisitions
// matrix has one cache line per thread so profiling increments do not
// contend. All metadata lives in simulated memory, so the overhead the
// paper reports for profiling and time sampling (about 27% on the
// read-only workload) is charged to the simulated threads too.
package natle

import (
	"natle/internal/htm"
	"natle/internal/mem"
	"natle/internal/sim"
	"natle/internal/telemetry"
	"natle/internal/tle"
	"natle/internal/vtime"
)

// Config holds NATLE's tuning parameters. The paper used a 300 ms
// cycle (30 ms profiling, 9 x 30 ms quanta); virtual-time defaults here
// are scaled down by ~300x so that trials of a few milliseconds contain
// several cycles, preserving every ratio (10% profiling, 9 quanta,
// equal mode split).
type Config struct {
	ProfilingLen vtime.Duration // total profiling time per cycle
	QuantumLen   vtime.Duration // one post-profiling quantum
	Quanta       int            // quanta per cycle

	// WarmupThreshold guards against deciding from too little data: if
	// fewer total acquisitions were profiled, the all-sockets mode is
	// chosen (paper: 256).
	WarmupThreshold uint64

	// RepetitionThreshold bounds how many times LockAcquire re-checks
	// the mode before giving up and proceeding anyway (pathology
	// guard; paper: "a large constant").
	RepetitionThreshold int

	// Wait is how long a thread blocked by the current mode waits
	// before re-checking.
	Wait vtime.Duration

	// MaxThrottleWait is the starvation watchdog: the cumulative time
	// one critical section may spend blocked by the mode before
	// proceeding anyway (counted in Lock.Starvations). A mode decision
	// can only starve a socket until the next profiling phase revisits
	// it, so the default (0) is twice the cycle length; negative
	// disables the bound, leaving only RepetitionThreshold.
	MaxThrottleWait vtime.Duration

	// SocketRecheck re-reads the thread's socket every this many
	// LockAcquire calls, to accommodate migration (paper: ~1K).
	SocketRecheck int

	// TimeSample is the cost charged for reading the current time in
	// getMode (the paper reduces it by caching in a thread-local).
	TimeSample vtime.Duration

	// AdaptProfiling enables the extension the paper leaves as future
	// work ("dynamically adapting these settings"): when consecutive
	// profiling phases reach the same decision, profiling is skipped
	// for exponentially more cycles (up to MaxProfSkip), halving the
	// steady-state profiling overhead; any decision change resets the
	// skip to 1.
	AdaptProfiling bool

	// MaxProfSkip bounds the profile-every-k-cycles adaptation
	// (default 8).
	MaxProfSkip int
}

// DefaultConfig returns the scaled-down defaults described above.
func DefaultConfig() Config {
	return Config{
		ProfilingLen:        300 * vtime.Microsecond,
		QuantumLen:          300 * vtime.Microsecond,
		Quanta:              9,
		WarmupThreshold:     256,
		RepetitionThreshold: 1 << 20,
		Wait:                2 * vtime.Microsecond,
		SocketRecheck:       1024,
		TimeSample:          18 * vtime.Nanosecond,
	}
}

// CycleLen returns the full cycle length for the configuration.
func (cfg Config) CycleLen() vtime.Duration {
	return cfg.ProfilingLen + vtime.Duration(cfg.Quanta)*cfg.QuantumLen
}

// ModeSample records one profiling decision, for the Fig 18(b) style
// mode timelines.
type ModeSample struct {
	Cycle         int
	FastestMode   int
	SlicePerMille int64    // share of each quantum given to FastestMode
	Socket0Share  float64  // share of post-profiling time on which socket 0 may run
	Acqs          []uint64 // profiled acquisitions per mode
}

// Lock is a NATLE lock: TLE plus per-lock adaptive socket throttling.
type Lock struct {
	sys   *htm.System
	inner *tle.Lock // the elided lock whose admission the modes shape
	cfg   Config
	id    telemetry.LockID // telemetry id for throttle-wait attribution

	numModes int
	sockets  int

	// Simulated-memory metadata.
	startTime     mem.Addr // word: first-use timestamp (0 = unset)
	lastProfStart mem.Addr // word: packed <time, stage>
	fastestMode   mem.Addr // word
	alternateMode mem.Addr // word
	fastestSlice  mem.Addr // word: per-mille share of a quantum
	profEvery     mem.Addr // word: profile every k-th cycle (AdaptProfiling)
	acq           mem.Addr // acquisitions[thread][mode], one line per thread

	// Adaptation state, only touched by the single thread that wins
	// the finalize CAS for a cycle.
	prevFastest  int
	prevSlice    int64
	stableStreak int

	// Host-side per-thread caches (socket, recheck counters), indexed
	// by HTM slot.
	threadSocket  [htm.MaxThreads]int8
	threadCounter [htm.MaxThreads]int32

	// Timeline is the record of profiling decisions (observational,
	// host-side only).
	Timeline []ModeSample

	// Starvations counts critical sections that hit the MaxThrottleWait
	// (or RepetitionThreshold) watchdog and proceeded despite the mode.
	Starvations uint64
}

// New builds a NATLE lock wrapping the TLE lock inner. Its metadata
// lines are homed on socket 0.
func New(sys *htm.System, c *sim.Ctx, inner *tle.Lock, cfg Config) *Lock {
	if cfg.Quanta <= 0 {
		cfg = DefaultConfig()
	}
	sockets := sys.Eng.Prof.Sockets
	l := &Lock{
		sys:      sys,
		inner:    inner,
		cfg:      cfg,
		numModes: sockets + 1,
		sockets:  sockets,
	}
	l.startTime = sys.AllocHome(c, 1, 0)
	l.lastProfStart = sys.AllocHome(c, 1, 0)
	l.fastestMode = sys.AllocHome(c, 1, 0)
	l.alternateMode = sys.AllocHome(c, 1, 0)
	l.fastestSlice = sys.AllocHome(c, 1, 0)
	l.profEvery = sys.AllocHome(c, 1, 0)
	sys.Mem.SetRaw(l.profEvery, 1)
	if l.cfg.MaxProfSkip <= 0 {
		l.cfg.MaxProfSkip = 8
	}
	if l.cfg.MaxThrottleWait == 0 {
		l.cfg.MaxThrottleWait = 2 * l.cfg.CycleLen()
	}
	l.acq = sys.AllocHome(c, htm.MaxThreads*mem.WordsPerLine, 0)
	for i := range l.threadSocket {
		l.threadSocket[i] = -1
	}
	// Until first profiling completes, run unthrottled.
	sys.Mem.SetRaw(l.fastestMode, uint64(l.numModes-1))
	sys.Mem.SetRaw(l.fastestSlice, 1000)
	l.id = sys.Recorder().RegisterLock(l.Name())
	return l
}

// Name identifies the lock and its inner policy in benchmark output.
func (l *Lock) Name() string { return "NATLE(" + l.inner.Name() + ")" }

// Inner returns the wrapped TLE lock.
func (l *Lock) Inner() *tle.Lock { return l.inner }

func (l *Lock) acqAddr(tid, mode int) mem.Addr {
	return l.acq + mem.Addr(tid*mem.WordsPerLine+mode)
}

// Acquisition counters are epoch-stamped rather than zeroed: each
// counter word packs the owning profiling phase's stamp in its high
// bits, so a counter from an earlier cycle reads as zero. The paper
// resets the array explicitly, which is negligible at its 30 ms
// profiling phases; at this simulator's scaled-down cycle lengths a
// 128-slot reset pass would consume a large fraction of the profiling
// phase, so the stamp achieves the same semantics at zero cost.
const (
	acqCountBits = 40
	acqCountMask = (uint64(1) << acqCountBits) - 1
)

// stampOf derives a cycle stamp from the profiling-phase start time.
// The hash mixing makes accidental stamp collisions between different
// cycles (which would let one stale count leak into a decision)
// vanishingly unlikely for any cycle length.
func stampOf(profStart vtime.Time) uint64 {
	h := uint64(profStart) >> 2
	h ^= h >> 17
	h *= 0x9E3779B1
	return h << acqCountBits
}

func packAcq(stamp, count uint64) uint64 { return stamp | count&acqCountMask }

func acqCount(word, stamp uint64) uint64 {
	if word&^acqCountMask != stamp {
		return 0 // stale epoch
	}
	return word & acqCountMask
}

// stage packing: times are rounded down to multiples of 4 ps so the
// two low bits carry the stage.
func packStage(t vtime.Time, stage uint64) uint64 {
	return (uint64(t) &^ 3) | stage
}
func stageOf(v uint64) uint64 { return v & 3 }
func baseOf(v uint64) uint64  { return v &^ 3 }

// socketOf returns the thread's socket, cached and rechecked every
// SocketRecheck acquisitions (as in the paper). A stale value only
// costs performance, never correctness.
func (l *Lock) socketOf(c *sim.Ctx) int {
	slot := l.sys.Slot(c)
	l.threadCounter[slot]++
	if l.threadSocket[slot] < 0 || int(l.threadCounter[slot])%l.cfg.SocketRecheck == 0 {
		l.threadSocket[slot] = int8(c.Socket())
	}
	return int(l.threadSocket[slot])
}

// Critical runs body as one critical section, following the paper's
// Figure 9 LockAcquire: check the lock's current mode, proceed if this
// thread's socket is admitted, otherwise wait and re-check (bounded by
// RepetitionThreshold).
func (l *Lock) Critical(c *sim.Ctx, body func()) {
	sock := l.socketOf(c)
	var waited vtime.Duration
	for rep := 0; rep < l.cfg.RepetitionThreshold; rep++ {
		mode, stamp := l.getMode(c)
		if mode == l.numModes-1 || mode == sock {
			l.recordWait(c, sock, waited)
			l.bumpAcquisition(c, mode, stamp)
			l.inner.Critical(c, body)
			return
		}
		if l.cfg.MaxThrottleWait > 0 && waited >= l.cfg.MaxThrottleWait {
			break
		}
		c.AdvanceIdle(l.cfg.Wait)
		waited += l.cfg.Wait
		c.Yield()
	}
	// Watchdog: the mode never admitted this socket within the wait (or
	// repetition) budget — proceed anyway rather than starve. The inner
	// TLE lock still serializes correctly; only throughput-shaping is
	// bypassed.
	l.Starvations++
	l.recordWait(c, sock, waited)
	l.inner.Critical(c, body)
}

// recordWait emits one throttle-wait telemetry span covering the whole
// blocked period (zero-length waits are not reported).
func (l *Lock) recordWait(c *sim.Ctx, sock int, waited vtime.Duration) {
	if waited > 0 {
		l.sys.Recorder().Wait(c.Now(), l.sys.Slot(c), sock, l.id, waited)
	}
}

func (l *Lock) bumpAcquisition(c *sim.Ctx, mode int, stamp uint64) {
	a := l.acqAddr(l.sys.Slot(c), mode)
	cnt := acqCount(l.sys.Read(c, a), stamp)
	l.sys.Write(c, a, packAcq(stamp, cnt+1))
}

// getMode implements Figure 10: determine the lock's current mode from
// the position within the cycle, driving profiling initialization and
// finalization as side effects. It also returns the current cycle's
// counter stamp (see bumpAcquisition).
func (l *Lock) getMode(c *sim.Ctx) (int, uint64) {
	c.Advance(l.cfg.TimeSample)
	now := c.Now()
	start := vtime.Time(l.sys.Read(c, l.startTime))
	if start == 0 {
		if l.sys.CAS(c, l.startTime, 0, uint64(now)) {
			start = now
		} else {
			start = vtime.Time(l.sys.Read(c, l.startTime))
		}
	}
	if now < start {
		now = start
	}
	cycleLen := l.cfg.CycleLen()
	timeInto := vtime.Duration(now-start) % cycleLen
	cycleStart := now.Add(-timeInto)
	stamp := stampOf(cycleStart)
	if l.cfg.AdaptProfiling {
		cycleIdx := uint64(vtime.Duration(now-start) / cycleLen)
		if k := l.sys.Read(c, l.profEvery); k > 1 && cycleIdx%k != 0 {
			// Skipped cycle: reuse the last decision for the whole
			// cycle (quanta tile the entire cycle, profiling included).
			fm := int(l.sys.Read(c, l.fastestMode))
			slice := int64(l.sys.Read(c, l.fastestSlice))
			if slice >= 1000 || fm == l.numModes-1 {
				return fm, stamp
			}
			tq := timeInto % l.cfg.QuantumLen
			if int64(tq)*1000 < int64(l.cfg.QuantumLen)*slice {
				return fm, stamp
			}
			return int(l.sys.Read(c, l.alternateMode)), stamp
		}
	}
	if timeInto < l.cfg.ProfilingLen {
		l.startProfiling(c, cycleStart)
		mode := int(timeInto / (l.cfg.ProfilingLen / vtime.Duration(l.numModes)))
		if mode >= l.numModes {
			mode = l.numModes - 1
		}
		return mode, stamp
	}
	l.finalizeProfiling(c)
	fm := int(l.sys.Read(c, l.fastestMode))
	slice := int64(l.sys.Read(c, l.fastestSlice))
	if slice >= 1000 || fm == l.numModes-1 {
		return fm, stamp
	}
	tq := (timeInto - l.cfg.ProfilingLen) % l.cfg.QuantumLen
	if int64(tq)*1000 < int64(l.cfg.QuantumLen)*slice {
		return fm, stamp
	}
	return int(l.sys.Read(c, l.alternateMode)), stamp
}

// startProfiling implements Figure 10's startProfiling: the first
// thread into a new profiling phase claims stage 0 with CAS and
// publishes stage 1. The paper's explicit counter reset between the
// two CASes is subsumed by the counters' epoch stamps (see
// bumpAcquisition), which invalidate earlier cycles' counts for free.
func (l *Lock) startProfiling(c *sim.Ctx, profStart vtime.Time) {
	target := packStage(profStart, 1)
	t := l.sys.Read(c, l.lastProfStart)
	for t < target {
		if t < packStage(profStart, 0) &&
			l.sys.CAS(c, l.lastProfStart, t, packStage(profStart, 0)) {
			l.sys.CAS(c, l.lastProfStart, packStage(profStart, 0), target)
			return
		}
		c.AdvanceIdle(200 * vtime.Nanosecond)
		c.Yield()
		t = l.sys.Read(c, l.lastProfStart)
	}
}

// finalizeProfiling implements Figure 11's finalizeProfiling: one
// thread CASes the stage from 1 to 2, aggregates, and publishes 3;
// concurrent threads wait out stage 2.
func (l *Lock) finalizeProfiling(c *sim.Ctx) {
	t := l.sys.Read(c, l.lastProfStart)
	if stageOf(t) == 3 {
		return
	}
	if stageOf(t) == 1 &&
		l.sys.CAS(c, l.lastProfStart, t, baseOf(t)|2) {
		l.computeBestLockModes(c, stampOf(vtime.Time(baseOf(t))))
		l.sys.CAS(c, l.lastProfStart, baseOf(t)|2, baseOf(t)|3)
		return
	}
	for {
		v := l.sys.Read(c, l.lastProfStart)
		if stageOf(v) != 2 || baseOf(v) != baseOf(t) {
			return
		}
		c.AdvanceIdle(200 * vtime.Nanosecond)
		c.Yield()
	}
}

// computeBestLockModes implements Figure 11: pick the mode with the
// most profiled acquisitions and the share of each quantum it gets.
// stamp identifies the cycle whose counters are live.
func (l *Lock) computeBestLockModes(c *sim.Ctx, stamp uint64) {
	acqs := make([]uint64, l.numModes)
	var total uint64
	for tid := 0; tid < htm.MaxThreads; tid++ {
		base := l.acqAddr(tid, 0)
		// Skip threads with no current-cycle counts without charging
		// reads for all 128 slots.
		quiet := true
		for m := 0; m < l.numModes; m++ {
			if acqCount(l.sys.Mem.Raw(base+mem.Addr(m)), stamp) != 0 {
				quiet = false
				break
			}
		}
		if quiet {
			continue
		}
		for m := 0; m < l.numModes; m++ {
			v := acqCount(l.sys.Read(c, base+mem.Addr(m)), stamp)
			acqs[m] += v
			total += v
		}
	}
	fastest, alternate := 0, 1
	for m := 1; m < l.numModes; m++ {
		if acqs[m] > acqs[fastest] {
			fastest = m
		}
	}
	best2 := uint64(0)
	alternate = (fastest + 1) % l.numModes
	for m := 0; m < l.numModes; m++ {
		if m != fastest && acqs[m] >= best2 {
			best2, alternate = acqs[m], m
		}
	}
	var slice int64
	if total < l.cfg.WarmupThreshold || fastest == l.numModes-1 {
		// Insufficient data or both sockets fastest: run unthrottled.
		fastest = l.numModes - 1
		slice = 1000
	} else {
		// Divide the quantum between this socket's mode and the other
		// socket's mode in proportion to profiled acquisitions.
		other := otherSocketMode(fastest, l.sockets)
		alternate = other
		den := acqs[fastest] + acqs[other]
		if den == 0 {
			slice = 1000
		} else {
			slice = int64(1000 * acqs[fastest] / den)
			if slice < 1 {
				slice = 1
			}
		}
	}
	l.sys.Write(c, l.fastestMode, uint64(fastest))
	l.sys.Write(c, l.alternateMode, uint64(alternate))
	l.sys.Write(c, l.fastestSlice, uint64(slice))

	if l.cfg.AdaptProfiling {
		// Same decision (mode and roughly the same slice) extends the
		// profiling skip; a change resets it.
		sameSlice := slice-l.prevSlice < 150 && l.prevSlice-slice < 150
		if fastest == l.prevFastest && sameSlice {
			if l.stableStreak < 30 {
				l.stableStreak++
			}
		} else {
			l.stableStreak = 0
		}
		k := 1
		for i := 0; i < l.stableStreak && k < l.cfg.MaxProfSkip; i++ {
			k *= 2
		}
		l.sys.Write(c, l.profEvery, uint64(k))
		l.prevFastest, l.prevSlice = fastest, slice
	}

	sample := ModeSample{
		Cycle:         len(l.Timeline),
		FastestMode:   fastest,
		SlicePerMille: slice,
		Acqs:          acqs,
	}
	sample.Socket0Share = l.socket0Share(fastest, alternate, slice)
	l.Timeline = append(l.Timeline, sample)
}

// otherSocketMode returns the mode of "the other socket" relative to a
// single-socket mode (the paper's 1-fastestMode generalized).
func otherSocketMode(mode, sockets int) int {
	if sockets == 2 {
		return 1 - mode
	}
	return (mode + 1) % sockets
}

// socket0Share computes the fraction of post-profiling time during
// which socket-0 threads are admitted (Fig 18(b)'s y-axis).
func (l *Lock) socket0Share(fastest, alternate int, slice int64) float64 {
	admit := func(mode int) bool { return mode == l.numModes-1 || mode == 0 }
	share := 0.0
	if admit(fastest) {
		share += float64(slice) / 1000
	}
	if slice < 1000 && admit(alternate) {
		share += float64(1000-slice) / 1000
	}
	return share
}
