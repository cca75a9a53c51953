package native

import (
	"sync"
	"sync/atomic"

	"natle/internal/backend"
	"natle/internal/natle"
	"natle/internal/scheme"
	"natle/internal/tle"
)

// maxGroups bounds the native stand-in for sockets (thread groups).
const maxGroups = 8

// NATLEConfig tunes the wall-clock throttling loop. The simulated
// NATLE profiles by running each mode for a slice of every cycle and
// counting acquisitions on virtual time; on real hardware that
// profiling tax is pure overhead, so the native variant instead
// smooths the per-group commit throughput it observes anyway into an
// EWMA and re-decides once per window.
type NATLEConfig struct {
	// Window is the decision window in wall-clock nanoseconds
	// (default 2ms; the paper's 300ms cycle scaled to bench-length
	// native runs).
	Window int64
	// Wait is how long a throttled thread waits before re-checking
	// admission (default 20us).
	Wait int64
	// MaxWait is the starvation watchdog: cumulative throttled wait
	// before a section proceeds regardless (default 2*Window).
	MaxWait int64
	// Alpha is the EWMA weight of the newest window (default 0.5).
	Alpha float64
	// AbortFrac is the throttling trigger: shape admission only while
	// the window's abort fraction exceeds it (default 0.05); below
	// it, elision is working and every group runs.
	AbortFrac float64
	// Warmup is the minimum commits a window needs before its numbers
	// may drive a throttling decision (default 256, as in the paper).
	Warmup uint64
}

// DefaultNATLEConfig returns the defaults above.
func DefaultNATLEConfig() NATLEConfig {
	return NATLEConfig{
		Window:    2_000_000,
		Wait:      20_000,
		Alpha:     0.5,
		AbortFrac: 0.05,
		Warmup:    256,
	}
}

// sampleEvery is how many of its own sections on a lock a thread lets
// pass between two looks at the clock for the end of the window. An
// admitted section otherwise reads no clock, so a window closes late by
// at most sampleEvery-1 sections of whichever running thread samples
// first (a throttled thread polls every Wait as well); decide divides
// by the time that really passed.
const sampleEvery = 16

// NATLE is native-tle plus per-lock adaptive group throttling driven
// by a wall-clock EWMA of per-group commit throughput.
type NATLE struct {
	// Cold header, read-only after NewNATLE: exactly one cache line
	// (8 + 8 + 48 bytes), so no hot word below shares it.
	inner  *TLE
	groups int
	cfg    NATLEConfig

	// windowStart and decision are read by every admitted() poll of a
	// throttled thread, decision by every critical section; each owns a
	// line so a window rollover CAS on one does not invalidate reads of
	// the other.
	windowStart atomic.Int64 // ns; 0 = not started
	_           [56]byte
	decision    atomic.Uint64 // pref<<32 | alt<<16 | permille
	_           [56]byte

	throttle struct { // written by threads that were shaped
		throttled   atomic.Uint64 // sections that waited at least once
		starvations atomic.Uint64 // watchdog-forced proceeds
	}
	_ [48]byte

	// decider is what the thread elected for an expired window folds
	// that window into, once per window: the inner lock's counters as
	// of the last decision (per shard, so that each window's sections
	// go to the group their thread is in now), the smoothed per-group
	// throughput and the timeline.
	decider struct {
		sync.Mutex
		done     []uint64 // per inner shard: sections completed
		attempts uint64
		aborts   uint64
		ewma     [maxGroups]float64 // sections/sec
		samples  []natle.ModeSample
	}
	_ [56]byte
}

// NewNATLE builds a native-natle lock over inner for the given group
// count. Zero config fields select DefaultNATLEConfig values.
func NewNATLE(inner *TLE, groups int, cfg NATLEConfig) *NATLE {
	def := DefaultNATLEConfig()
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	if cfg.Wait <= 0 {
		cfg.Wait = def.Wait
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 2 * cfg.Window
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = def.Alpha
	}
	if cfg.AbortFrac <= 0 {
		cfg.AbortFrac = def.AbortFrac
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = def.Warmup
	}
	if groups < 1 {
		groups = 1
	}
	if groups > maxGroups {
		groups = maxGroups
	}
	n := &NATLE{inner: inner, groups: groups, cfg: cfg}
	// Until the first decision: everyone runs.
	n.decision.Store(n.pack(groups, groups, 1000))
	return n
}

func (n *NATLE) pack(pref, alt int, permille int64) uint64 {
	return uint64(pref)<<32 | uint64(alt)<<16 | uint64(permille)
}

// Name implements scheme.BackendInstance.
func (n *NATLE) Name() string { return "native-natle(" + n.inner.Name() + ")" }

// Stats implements scheme.BackendInstance: the inner elision counters
// plus the decision timeline and the throttling extras.
func (n *NATLE) Stats() scheme.Stats {
	n.decider.Lock()
	timeline := append([]natle.ModeSample(nil), n.decider.samples...)
	n.decider.Unlock()
	st := n.inner.tleStats()
	return scheme.Stats{
		TLE:      st,
		Timeline: timeline,
		Extra: map[string]uint64{
			"natle_decisions":      uint64(len(timeline)),
			"natle_throttled":      n.throttle.throttled.Load(),
			"natle_starvations":    n.throttle.starvations.Load(),
			"natle_inner_fallback": st.Fallbacks,
		},
	}
}

// Critical implements scheme.BackendInstance: wait until the thread's group is
// admitted by the current decision (bounded by the starvation
// watchdog), then run under the inner native-tle lock. A section that
// is admitted at once reads the decision word and its own counters and
// nothing else of the throttling layer.
func (n *NATLE) Critical(bc backend.Ctx, body func()) {
	c := bc.(*Thread)
	if c.tx.active {
		body()
		return
	}
	sh := n.inner.shard(c)
	if (sh.commits.Load()+sh.fallbacks.Load())%sampleEvery == 0 {
		n.maybeDecide(c)
	}
	var waited int64
	for !n.admitted(c) {
		if waited >= n.cfg.MaxWait {
			n.throttle.starvations.Add(1)
			break
		}
		c.spinWait(n.cfg.Wait)
		waited += n.cfg.Wait
		n.maybeDecide(c)
	}
	if waited > 0 {
		n.throttle.throttled.Add(1)
	}
	n.inner.critical(c, sh, body)
}

// Exclusive implements scheme.BackendInstance: the inner lock's; group
// throttling shapes only optimistic admission.
func (n *NATLE) Exclusive(c backend.Ctx, body func()) { n.inner.Exclusive(c, body) }

// admitted checks the thread's group against the current decision:
// the preferred group owns the first permille share of each window
// position, the alternate the rest (the paper's proportional quantum
// split, on wall-clock windows).
func (n *NATLE) admitted(c *Thread) bool {
	d := n.decision.Load()
	pref := int(d >> 32 & 0xffff)
	if pref >= n.groups {
		return true
	}
	g := c.group
	alt := int(d >> 16 & 0xffff)
	permille := int64(d & 0xffff)
	pos := (c.w.now() - n.windowStart.Load()) % n.cfg.Window
	if pos < 0 {
		pos = 0
	}
	if pos*1000 < permille*n.cfg.Window {
		return pref == g
	}
	return alt == g
}

// maybeDecide elects at most one thread per expired window (CAS on
// the window start) to run the decision. decide itself is not a hot
// path: it runs once per window and is free to allocate.
func (n *NATLE) maybeDecide(c *Thread) {
	now := c.w.now()
	ws := n.windowStart.Load()
	if ws == 0 {
		n.windowStart.CompareAndSwap(0, now)
		return
	}
	if now-ws < n.cfg.Window || !n.windowStart.CompareAndSwap(ws, now) {
		return
	}
	n.decide(now - ws)
}

// decide folds the expired window's per-group section counts into the
// EWMAs and publishes the next admission decision. The counts are the
// inner lock's own: every shard has one owner and every owner one
// group, so the paper's per-socket acquisition profile is a sum the
// sections already paid for.
func (n *NATLE) decide(elapsed int64) {
	d := &n.decider
	d.Lock()
	defer d.Unlock()
	sec := float64(elapsed) / 1e9
	acqs := make([]uint64, n.groups)
	var total, att, ab uint64
	shards := n.inner.all()
	d.done = append(d.done, make([]uint64, len(shards)-len(d.done))...)
	for i, sh := range shards {
		var st tle.Stats
		sh.addTo(&st)
		g := min(int(sh.group.Load()), n.groups-1)
		acqs[g] += st.Ops - d.done[i]
		total += st.Ops - d.done[i]
		d.done[i] = st.Ops
		att += st.Attempts
		ab += st.Aborts[1]
	}
	var abortFrac float64
	if dAtt := att - d.attempts; dAtt > 0 {
		abortFrac = float64(ab-d.aborts) / float64(dAtt)
	}
	d.attempts, d.aborts = att, ab
	e := d.ewma[:n.groups]
	for g := range e {
		e[g] = n.cfg.Alpha*(float64(acqs[g])/sec) + (1-n.cfg.Alpha)*e[g]
	}

	pref, alt, permille := n.groups, n.groups, int64(1000)
	if total >= n.cfg.Warmup && abortFrac > n.cfg.AbortFrac && n.groups > 1 {
		pref = 0
		for g := 1; g < n.groups; g++ {
			if e[g] > e[pref] {
				pref = g
			}
		}
		alt = (pref + 1) % n.groups
		for g := 0; g < n.groups; g++ {
			if g != pref && e[g] >= e[alt] {
				alt = g
			}
		}
		if den := e[pref] + e[alt]; den > 0 {
			permille = int64(1000 * e[pref] / den)
		}
		if permille < 1 {
			permille = 1
		}
		if permille > 1000 {
			permille = 1000
		}
	}
	n.decision.Store(n.pack(pref, alt, permille))

	sample := natle.ModeSample{
		Cycle:         len(d.samples),
		FastestMode:   pref,
		SlicePerMille: permille,
		Acqs:          acqs,
	}
	admit := func(mode int) bool { return mode >= n.groups || mode == 0 }
	if admit(pref) {
		sample.Socket0Share += float64(permille) / 1000
	}
	if permille < 1000 && admit(alt) {
		sample.Socket0Share += float64(1000-permille) / 1000
	}
	d.samples = append(d.samples, sample)
}
