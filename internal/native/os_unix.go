//go:build unix

package native

import (
	"runtime"
	"syscall"
	"time"
)

// SleepUntil blocks the calling goroutine until Now() >= deadline; a
// deadline already reached returns at once. It yields the processor
// once, so goroutines made runnable just before the call run first even
// at GOMAXPROCS=1, and then sleeps in the kernel for whatever gap is
// left: the goroutine holds its P while in nanosleep until the runtime
// takes the P back, so without the yield a server it has just woken
// waits behind the sleep. The kernel's timer slack (50 µs by default)
// groups wake-ups, so a wake-up lands late by up to that much and never
// early.
func (c *Thread) SleepUntil(deadline int64) {
	if c.w.now() >= deadline {
		return
	}
	runtime.Gosched()
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
