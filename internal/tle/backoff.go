package tle

import "natle/internal/vtime"

// Default backoff bounds. The base matches the scale of abort-handling
// overhead on real hardware; the cap is chosen so a herd of ~50
// desynchronized threads spreads across a few microseconds without any
// single thread stalling long enough to matter.
const (
	DefaultBackoffBase = 75 * vtime.Nanosecond
	DefaultBackoffCap  = 2400 * vtime.Nanosecond
)

// Backoff is a capped exponential backoff with full jitter: after the
// n-th consecutive abort the retry gap is drawn uniformly from
// [0, min(Base<<n, Cap)). Randomization desynchronizes retrying threads
// (abort handling, pipeline refill, and scheduling noise do this on
// real hardware; without it the deterministic simulator produces
// lock-step retry herds that re-abort each other indefinitely), while
// the exponential growth sheds load when contention persists. The zero
// value uses DefaultBackoffBase/DefaultBackoffCap.
type Backoff struct {
	Base vtime.Duration // first-retry bound (default 75ns)
	Cap  vtime.Duration // bound ceiling (default 2400ns)
}

// Gap returns the randomized delay before retry attempt+1, where
// attempt counts consecutive aborts so far (first retry = 0). The draw
// comes from the calling thread's deterministic RNG.
func (b Backoff) Gap(c interface{ Intn(int) int }, attempt int) vtime.Duration {
	base, ceil := b.Base, b.Cap
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if ceil <= 0 {
		ceil = DefaultBackoffCap
	}
	bound := base
	// Double per attempt, saturating at the cap (the loop condition also
	// guards the shift against overflow for absurd attempt counts).
	for i := 0; i < attempt && bound < ceil; i++ {
		bound <<= 1
	}
	if bound > ceil {
		bound = ceil
	}
	return vtime.Duration(c.Intn(int(bound)))
}
