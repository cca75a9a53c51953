// Package fault is the deterministic fault injector for the simulated
// HTM substrate. It reproduces, on demand, the pathological hardware
// behaviours the paper documents — spurious aborts, the lying retry
// hint bit (Fig 2), sibling-hyperthread capacity pressure, stretched
// cross-socket invalidation windows, and preemption while holding the
// fallback lock (the classic TLE convoy trigger) — so the retry and
// degradation machinery in packages tle and natle can be exercised
// under adversarial conditions instead of only the happy-ish path.
//
// The substrate consults an Injector through nil-checked hooks in
// packages htm, cache, and spinlock: with no injector installed the
// hooks cost one pointer comparison, and an injector built from the
// zero Profile is behaviourally identical to no injector at all (it
// draws no randomness and adds no virtual time), which is asserted by
// the equivalence tests.
//
// All randomness is deterministic: hooks that receive a *sim.Ctx draw
// from the calling thread's seeded RNG (sim.Ctx.Intn/Float64); the one
// hook that has no thread context (InvalDelay, called from the cache
// model) draws from the injector's own seeded xorshift stream. A run
// is therefore a pure function of (machine profile, fault profile,
// seed) — never of wall-clock time.
package fault

import (
	"fmt"
	"math"

	"natle/internal/sim"
	"natle/internal/telemetry"
	"natle/internal/vtime"
)

// Injector is the injection interface the HTM substrate consults. The
// hooks are called under the simulator's global serialization token.
// Implementations must be deterministic; the default implementation is
// New. Tests may supply their own (e.g. an injector that aborts every
// transaction until told to stop).
type Injector interface {
	// TxStart is invoked at transaction begin. It returns the number of
	// transactional accesses after which a spurious abort fires (0 =
	// none), modelling Poisson-like asynchronous abort arrivals (the
	// geometric distribution is the discrete-time Poisson interarrival).
	// It may also open machine-level fault windows (capacity squeezes).
	TxStart(c *sim.Ctx) int

	// AbortHint filters the hardware retry hint an abort reports, given
	// the (untouched) condition code. The lying-hint faults live here:
	// a capacity abort reported with the hint set ("retry will help" —
	// it will not) or a conflict abort reported with the hint clear.
	AbortHint(c *sim.Ctx, code telemetry.Code, hint bool) bool

	// Caps filters the transaction capacity bounds, modelling transient
	// sibling-hyperthread pressure shrinking the effective write-set
	// budget for a window.
	Caps(c *sim.Ctx, writeCap, readCap int) (int, int)

	// InvalDelay returns extra latency for an invalidation (remote
	// reports whether it crossed the socket boundary), stretching the
	// cross-socket window of contention.
	InvalDelay(now vtime.Time, remote bool) vtime.Duration

	// CSStall returns a stall to insert immediately after a fallback
	// lock acquisition (simulated preemption while holding the lock),
	// or 0.
	CSStall(c *sim.Ctx) vtime.Duration
}

// Profile configures the built-in injector. The zero value disables
// every fault: New(Profile{}, seed) is behaviourally identical to
// installing no injector.
type Profile struct {
	// SpuriousAbortRate is the per-transactional-access probability of
	// an injected spurious abort (condition code conflict, hint set, as
	// TSX reports interrupts and other environmental aborts). Arrivals
	// are geometric in the access count — the discrete-time analogue of
	// a Poisson process over a transaction's lifetime.
	SpuriousAbortRate float64

	// LieOnCapacity is the probability that a capacity abort reports
	// the retry hint SET (the lie: retrying cannot help a genuinely
	// overflowing transaction).
	LieOnCapacity float64

	// LieOnConflict is the probability that a conflict abort reports
	// the retry hint CLEAR — the Fig 2 pathology: policies that honor
	// the hint fall back to the lock for transient, retryable aborts.
	LieOnConflict float64

	// SqueezeProb is the per-transaction-start probability that a
	// capacity-squeeze window opens (if none is active): for SqueezeLen
	// of virtual time every transaction's capacity bounds are divided
	// by SqueezeFactor, modelling a burst of sibling-hyperthread cache
	// pressure.
	SqueezeProb   float64
	SqueezeFactor int            // capacity divisor during a window (default 64)
	SqueezeLen    vtime.Duration // window length (default 20us)

	// InvalDelayProb is the per-invalidation probability of adding
	// InvalDelayLen to a cross-socket invalidation, stretching the
	// window of contention (paper §3.2).
	InvalDelayProb float64
	InvalDelayLen  vtime.Duration // default 300ns

	// StallProb is the per-acquisition probability that a thread is
	// "preempted" for StallLen immediately after taking a spin lock —
	// while transactions subscribed to the lock word abort and pile up
	// behind it (the TLE convoy / lemming trigger).
	StallProb float64
	StallLen  vtime.Duration // default 30us
}

// Enabled reports whether any fault is active.
func (p Profile) Enabled() bool {
	return p.SpuriousAbortRate > 0 || p.LieOnCapacity > 0 || p.LieOnConflict > 0 ||
		p.SqueezeProb > 0 || p.InvalDelayProb > 0 || p.StallProb > 0
}

// Stats counts the faults actually injected (host-side, observational).
type Stats struct {
	// SpuriousAborts counts spurious-abort countdowns armed: one per
	// transactional attempt started while SpuriousAbortRate > 0, on
	// either world. A countdown fires only if its attempt makes that
	// many accesses, so this bounds the injected aborts from above.
	SpuriousAborts uint64
	HintLies       uint64 // abort hints flipped
	Squeezes       uint64 // capacity-squeeze windows opened
	SqueezedTx     uint64 // capacity queries answered with squeezed bounds
	InvalDelays    uint64 // invalidations delayed
	Stalls         uint64 // in-critical-section stalls injected
}

// String renders the counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf("spurious=%d hint-lies=%d squeezes=%d squeezed-tx=%d inval-delays=%d stalls=%d",
		s.SpuriousAborts, s.HintLies, s.Squeezes, s.SqueezedTx, s.InvalDelays, s.Stalls)
}

// Target is a world a trial's faults are armed on: the simulator's
// (workload.SimWorld) and the native one (native.World) both are.
// ArmFaults installs an injector for p before the world runs (a
// disabled p arms nothing), and FaultStats reports what it injected.
type Target interface {
	ArmFaults(p Profile)
	FaultStats() Stats
}

// Arm arms *p, when p is non-nil, on w, which must then be a Target,
// and returns w for the end-of-trial stats query (nil when p is nil).
func Arm(w any, p *Profile) Target {
	if p == nil {
		return nil
	}
	t, ok := w.(Target)
	if !ok {
		panic(fmt.Sprintf("fault: a %T cannot carry faults", w))
	}
	t.ArmFaults(*p)
	return t
}

// Fault is the built-in deterministic injector.
type Fault struct {
	p   Profile
	rng uint64 // private stream for hooks without a thread context

	squeezeUntil vtime.Time

	Stats Stats
}

// New builds an injector for the profile. seed feeds the injector's
// private RNG stream; hooks with a thread context use the thread's own
// seeded RNG, so the whole run stays a function of (profile, seed).
func New(p Profile, seed int64) *Fault {
	if p.SqueezeFactor <= 0 {
		p.SqueezeFactor = 64
	}
	if p.SqueezeLen <= 0 {
		p.SqueezeLen = 20 * vtime.Microsecond
	}
	if p.InvalDelayLen <= 0 {
		p.InvalDelayLen = 300 * vtime.Nanosecond
	}
	if p.StallLen <= 0 {
		p.StallLen = 30 * vtime.Microsecond
	}
	rng := uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	if rng == 0 {
		rng = 0x2545F4914F6CDD1D
	}
	return &Fault{p: p, rng: rng}
}

// Profile returns the (defaulted) profile the injector was built with.
func (f *Fault) Profile() Profile { return f.p }

func (f *Fault) rand64() uint64 {
	x := f.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	f.rng = x
	return x * 0x2545F4914F6CDD1D
}

func (f *Fault) float64() float64 { return float64(f.rand64()>>11) / (1 << 53) }

// TxStart implements Injector.
func (f *Fault) TxStart(c *sim.Ctx) int {
	if f.p.SqueezeProb > 0 && c.Now() >= f.squeezeUntil &&
		c.Float64() < f.p.SqueezeProb {
		f.squeezeUntil = c.Now().Add(f.p.SqueezeLen)
		f.Stats.Squeezes++
	}
	if f.p.SpuriousAbortRate <= 0 {
		return 0
	}
	// Geometric interarrival by inverse transform: the countdown is the
	// number of accesses until the first success of a Bernoulli(p)
	// process. u is kept away from 0 so Log stays finite.
	u := c.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	k := int(math.Ceil(math.Log(u) / math.Log(1-f.p.SpuriousAbortRate)))
	if k < 1 {
		k = 1
	}
	f.Stats.SpuriousAborts++
	return k
}

// AbortHint implements Injector.
func (f *Fault) AbortHint(c *sim.Ctx, code telemetry.Code, hint bool) bool {
	switch code {
	case telemetry.CodeCapacity:
		if !hint && f.p.LieOnCapacity > 0 && c.Float64() < f.p.LieOnCapacity {
			f.Stats.HintLies++
			return true
		}
	case telemetry.CodeConflict:
		if hint && f.p.LieOnConflict > 0 && c.Float64() < f.p.LieOnConflict {
			f.Stats.HintLies++
			return false
		}
	case telemetry.CodeNone, telemetry.CodeExplicit, telemetry.CodeLockHeld:
		// The hint lies model environmental misreporting; explicit and
		// lock-held aborts carry exact, program-chosen hints that no
		// hardware path distorts.
	}
	return hint
}

// Caps implements Injector.
func (f *Fault) Caps(c *sim.Ctx, writeCap, readCap int) (int, int) {
	if f.p.SqueezeProb <= 0 || c.Now() >= f.squeezeUntil {
		return writeCap, readCap
	}
	f.Stats.SqueezedTx++
	w := writeCap / f.p.SqueezeFactor
	r := readCap / f.p.SqueezeFactor
	if w < 1 {
		w = 1
	}
	if r < 1 {
		r = 1
	}
	return w, r
}

// InvalDelay implements Injector. It has no thread context (the cache
// model works below the thread layer), so it draws from the injector's
// private deterministic stream.
func (f *Fault) InvalDelay(now vtime.Time, remote bool) vtime.Duration {
	if !remote || f.p.InvalDelayProb <= 0 {
		return 0
	}
	if f.float64() >= f.p.InvalDelayProb {
		return 0
	}
	f.Stats.InvalDelays++
	return f.p.InvalDelayLen
}

// CSStall implements Injector.
func (f *Fault) CSStall(c *sim.Ctx) vtime.Duration {
	if f.p.StallProb <= 0 || c.Float64() >= f.p.StallProb {
		return 0
	}
	f.Stats.Stalls++
	return f.p.StallLen
}
