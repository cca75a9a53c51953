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
// sixteen looping threads, every Checkpoint of which switches: when
// thread 3 panics, or leaves the run queue empty with threads still
// live, Run's own panic must come after every other thread has been
// unwound — each deferred function run exactly once, on Run's goroutine
// (the unsynchronised counters below are what -race watches) — and in
// every case, normal completion included, no coroutine may outlive Run:
// the benchmark builds hundreds of 73-thread engines per process.
func TestRunLeavesNothingBehind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const threads, faultAt = 16, 5
	for _, tc := range []struct {
		name   string
		fault  func(e *Engine) (exit bool) // thread 3, entering iteration faultAt
		prefix string                      // of Run's panic, "" for a normal return
	}{
		{"complete", func(*Engine) bool { return false }, ""},
		{"crash", func(*Engine) bool { panic("boom") }, "sim thread 3: boom"},
		{"deadlock", func(e *Engine) bool { e.heap = e.heap[:0]; return true }, "sim: deadlock"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New(machine.LargeX52(), machine.FillSocketFirst{}, threads, 1)
			var unwound [threads]int
			total := 0
			for i := 0; i < threads; i++ {
				e.Spawn(nil, func(c *Ctx) {
					defer func() { unwound[c.ID]++; total++ }()
					for j := 0; j < 4*faultAt; j++ {
						if c.ID == 3 && j == faultAt && tc.fault(e) {
							return
						}
						c.Advance(150 * vtime.Nanosecond)
						c.Checkpoint()
					}
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
