package tle

import "natle/internal/vtime"

// RetryBudget is a windowed token bucket bounding transactional
// retries. The service gives each shard one budget shared by all of
// the shard's servers: every aborted hardware attempt spends a token,
// and once the window's tokens are gone the shard stops elided
// execution (runs its batches under its lock held pessimistically)
// until the next window refills the bucket. Bounding retries
// — rather than attempts — caps the wasted work an abort storm can
// extract from a shard while leaving well-behaved windows untouched.
//
// All methods are called under the shard's lock (on the simulator, its
// serialization token: one shard's servers never run concurrently on
// the host), so no atomics are needed.
type RetryBudget struct {
	budget int
	window vtime.Duration

	tokens    int
	start     vtime.Time
	started   bool
	exhausted uint64 // windows that ran out of tokens
	denied    uint64 // Allow calls refused while exhausted
}

// NewRetryBudget returns a budget of n retry tokens per window. A
// non-positive n or window disables the budget (Allow always grants).
func NewRetryBudget(n int, window vtime.Duration) *RetryBudget {
	return &RetryBudget{budget: n, window: window, tokens: n}
}

// enabled reports whether the budget is live.
func (b *RetryBudget) enabled() bool { return b != nil && b.budget > 0 && b.window > 0 }

// refill rolls the window forward if now has passed its end, restoring
// the full token budget.
func (b *RetryBudget) refill(now vtime.Time) {
	if !b.started {
		b.start, b.started = now, true
		return
	}
	for now.Sub(b.start) >= b.window {
		b.start = b.start.Add(b.window)
		b.tokens = b.budget
	}
}

// Spend deducts n retry tokens observed since the last call (clamping
// at zero) and records the window as exhausted the moment the bucket
// empties.
func (b *RetryBudget) Spend(now vtime.Time, n uint64) {
	if !b.enabled() || n == 0 {
		return
	}
	b.refill(now)
	had := b.tokens > 0
	if n > uint64(b.tokens) {
		b.tokens = 0
	} else {
		b.tokens -= int(n)
	}
	if had && b.tokens == 0 {
		b.exhausted++
	}
}

// Allow reports whether elided execution is still within budget at
// now; a refusal is counted as a denied grant.
func (b *RetryBudget) Allow(now vtime.Time) bool {
	if !b.enabled() {
		return true
	}
	b.refill(now)
	if b.tokens > 0 {
		return true
	}
	b.denied++
	return false
}

// Exhausted returns how many windows ran the bucket dry.
func (b *RetryBudget) Exhausted() uint64 {
	if b == nil {
		return 0
	}
	return b.exhausted
}

// Denied returns how many Allow calls were refused.
func (b *RetryBudget) Denied() uint64 {
	if b == nil {
		return 0
	}
	return b.denied
}
