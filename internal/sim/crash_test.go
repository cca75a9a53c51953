package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"natle/internal/machine"
	"natle/internal/vtime"
)

// TestRunLeavesNothingBehind checks the crash/stop contract of Run on
// sixteen looping threads, every Checkpoint of which switches, and four
// pollers parked in WaitUntil (IDs 16-19, co-prime periods) whose
// conditions the loopers' hand-offs evaluate: when thread 3 panics, or
// leaves the run queue empty with threads still live, or poller 17's
// condition panics or makes a simulated access on whatever stack is
// evaluating it, Run's own panic must name the right thread and come
// after every other thread has been unwound — each deferred function
// run exactly once, on Run's goroutine (the unsynchronised counters
// below are what -race watches) — and in every case, normal completion
// included, no coroutine may outlive Run: the benchmark builds hundreds
// of 73-thread engines per process.
func TestRunLeavesNothingBehind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const loopers, pollers, faultAt, badPoller = 16, 4, 5, 17
	const threads = loopers + pollers
	for _, tc := range []struct {
		name   string
		fault  func(e *Engine) (exit bool) // thread 3, entering iteration faultAt
		cond   func(c *Ctx)                // poller 17, in its condition once thread 3 got there
		prefix string                      // of Run's panic, "" for a normal return
	}{
		{"complete", func(*Engine) bool { return false }, nil, ""},
		{"crash", func(*Engine) bool { panic("boom") }, nil, "sim thread 3: boom"},
		{"deadlock", func(e *Engine) bool { e.heap = e.heap[:0]; return true }, nil, "sim: deadlock"},
		{"cond-crash", func(*Engine) bool { return false }, func(*Ctx) { panic("boom") }, "sim thread 17: boom"},
		{"cond-access", func(*Engine) bool { return false },
			func(c *Ctx) { c.Advance(vtime.Microsecond); c.Checkpoint() },
			"sim thread 17: sim: simulated access inside the WaitUntil condition of thread 17"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New(machine.LargeX52(), machine.FillSocketFirst{}, threads, 1)
			var unwound [threads]int
			total, finished, faulted := 0, 0, false
			for i := 0; i < loopers; i++ {
				e.Spawn(nil, func(c *Ctx) {
					defer func() { unwound[c.ID]++; total++ }()
					for j := 0; j < 4*faultAt; j++ {
						if c.ID == 3 && j == faultAt {
							faulted = true
							if tc.fault(e) {
								return
							}
						}
						c.Advance(150 * vtime.Nanosecond)
						c.Checkpoint()
					}
					finished++
				})
			}
			for _, poll := range []vtime.Duration{37, 173, 499, 1009} {
				e.Spawn(nil, func(c *Ctx) {
					defer func() { unwound[c.ID]++; total++ }()
					c.WaitUntil(poll*vtime.Nanosecond, func() bool {
						if faulted && c.ID == badPoller && tc.cond != nil {
							tc.cond(c)
						}
						return finished == loopers
					})
				})
			}
			var msg string
			func() {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				e.Run()
			}()
			if !strings.HasPrefix(msg, tc.prefix) || (tc.prefix == "") != (msg == "") {
				t.Errorf("Run panicked with %q, want prefix %q", msg, tc.prefix)
			}
			for id, n := range unwound {
				if n != 1 {
					t.Errorf("thread %d: deferred function ran %d times by the time Run returned, want 1", id, n)
				}
			}
			if total != threads {
				t.Errorf("%d deferred functions ran by the time Run returned, want %d", total, threads)
			}
			for i := 0; i < 2000 && runtime.NumGoroutine() > before; i++ {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines outstanding after Run, %d before New", n, before)
			}
		})
	}
}
