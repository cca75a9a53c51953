//go:build !unix

package native

import (
	"runtime"
	"time"
)

// SleepUntil blocks the calling goroutine until Now() >= deadline,
// yielding the processor until then: without nanosleep the goroutine
// spins through the scheduler, which takes a whole CPU but lets every
// runnable goroutine run between two looks at the clock.
func (c *Thread) SleepUntil(deadline int64) {
	for c.w.now() < deadline {
		runtime.Gosched()
	}
}

// ProcessCPU returns 0: there is no getrusage to read the process's CPU
// time from.
func ProcessCPU() time.Duration { return 0 }
