//go:build unix

package native

import (
	"syscall"
	"time"
)

// SleepUntil blocks the calling goroutine in the kernel until Now() >=
// deadline; a deadline already reached returns at once. It does not
// yield: the goroutine holds its P while in nanosleep until the runtime
// takes the P back, so a goroutine made runnable just before the call
// may wait behind the sleep, and a caller that has just woken one yields
// first (runtime.Gosched). The kernel's timer slack (50 µs by default)
// groups wake-ups, so a wake-up lands late by up to that much and never
// early.
func (c *Thread) SleepUntil(deadline int64) {
	for now := c.w.now(); now < deadline; now = c.w.now() {
		// An interrupted sleep (EINTR) returns early; the loop sleeps
		// again for what is left.
		ts := syscall.NsecToTimespec(deadline - now)
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// ProcessCPU returns the user plus system CPU time the process has used
// so far (getrusage RUSAGE_SELF).
func ProcessCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // RUSAGE_SELF with a valid pointer does not fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
