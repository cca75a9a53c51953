package sim

import (
	"fmt"
	"runtime"
	"testing"

	"natle/internal/machine"
	"natle/internal/vtime"
)

// recordPollers runs three loopers and four waiting threads and returns
// "ID@now" for every Checkpoint return and every condition call, in the
// order they happened. wait is the primitive under test. The loopers
// (IDs 1-3, steps below and above Slack) count their iterations into
// ticks; each poller waits, round after round, for ticks to reach its
// next threshold, so its condition flips to true mid-run and is false
// again on the next round, and makes one access between rounds. Poll
// periods are pairwise co-prime; poller 4's 37 ns is below Slack, so it
// re-evaluates in place several times per turn and passes the
// 1024-access migration check; poller 7's thresholds are all zero, true
// on the first call. Poller 4 starts on the core of looper 3, the one
// that runs longest, so under a dynamic policy that check moves it
// (moved reports whether it did). The driver (ID 0) waits for everyone.
func recordPollers(policy machine.PinPolicy, wait func(c *Ctx, poll vtime.Duration, cond func() bool)) (events []string, moved bool) {
	const iters, rounds = 400, 5
	e := New(machine.LargeX52(), policy, 7, 7)
	record := func(c *Ctx) {
		events = append(events, fmt.Sprintf("%d@%d", c.ID, int64(c.Now())))
	}
	ticks := 0
	e.Spawn(nil, func(c *Ctx) {
		wait(c, vtime.Microsecond, func() bool { record(c); return e.live <= 1 })
	})
	var loopers []*Ctx
	for _, step := range []vtime.Duration{61, 150, 211} {
		loopers = append(loopers, e.Spawn(nil, func(c *Ctx) {
			for j := 0; j < iters; j++ {
				c.Advance(step * vtime.Nanosecond)
				c.Checkpoint()
				record(c)
				ticks++
			}
		}))
	}
	var pollers []*Ctx
	for i, poll := range []vtime.Duration{37, 173, 499, 1009} {
		stride := 3 * iters / rounds
		if i == 3 {
			stride = 0 // then every round is already satisfied
		}
		pollers = append(pollers, e.Spawn(nil, func(c *Ctx) {
			for r := 0; r < rounds; r++ {
				wait(c, poll*vtime.Nanosecond, func() bool { record(c); return ticks >= r*stride })
				c.Advance(90 * vtime.Nanosecond)
				c.Checkpoint()
				record(c)
			}
		}))
	}
	first := pollers[0]
	e.coreLoad[first.core]--
	first.core, first.socket = loopers[2].core, loopers[2].socket
	e.coreLoad[first.core]++
	e.Run()
	return events, first.core != loopers[2].core
}

// TestWaitUntilMatchesHandWrittenLoop checks that letting the scheduler
// poll a parked thread changes nothing but the stack the poll runs on:
// the hand-written loop WaitUntil used to be and WaitUntil itself must
// produce the same record, event for event, whatever GOMAXPROCS is.
func TestWaitUntilMatchesHandWrittenLoop(t *testing.T) {
	byHand := func(c *Ctx, poll vtime.Duration, cond func() bool) {
		for !cond() {
			c.AdvanceIdle(poll)
			c.Checkpoint()
		}
	}
	for _, tc := range []struct {
		name   string
		policy machine.PinPolicy
	}{
		{"fill-socket-first", machine.FillSocketFirst{}},
		{"unpinned", machine.Unpinned{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, moved := recordPollers(tc.policy, byHand)
			if moved != tc.policy.Dynamic() {
				t.Fatalf("poller migrated: %v, want %v", moved, tc.policy.Dynamic())
			}
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got, _ := recordPollers(tc.policy, (*Ctx).WaitUntil)
				runtime.GOMAXPROCS(prev)
				if len(got) != len(want) {
					t.Fatalf("GOMAXPROCS=%d: %d events, want %d", procs, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("GOMAXPROCS=%d: event %d of %d is %s, want %s", procs, i, len(want), got[i], want[i])
					}
				}
			}
		})
	}
}
