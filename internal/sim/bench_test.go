package sim

import (
	"fmt"
	"testing"

	"natle/internal/machine"
	"natle/internal/vtime"
)

// BenchmarkHandoff times one Checkpoint that switches threads: every
// thread advances by more than Slack before each call, so none takes
// the early return. allocs/op must be 0.
func BenchmarkHandoff(b *testing.B) {
	for _, threads := range []int{2, 72} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			e := New(machine.LargeX52(), nil, threads, 1)
			steps := b.N/threads + 1
			for i := 0; i < threads; i++ {
				e.Spawn(nil, func(c *Ctx) {
					for j := 0; j < steps; j++ {
						c.Advance(150 * vtime.Nanosecond)
						c.Checkpoint()
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}

// BenchmarkCheckpointNoSwitch times the early-return path: the caller's
// clock never passes the waiting thread's by more than Slack.
func BenchmarkCheckpointNoSwitch(b *testing.B) {
	e := New(machine.LargeX52(), nil, 2, 1)
	e.Spawn(nil, func(c *Ctx) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Checkpoint()
		}
	})
	e.Spawn(nil, func(*Ctx) {})
	e.Run()
}

// BenchmarkSpawnRun times building, running and tearing down one engine
// of 72 threads that do nothing.
func BenchmarkSpawnRun(b *testing.B) {
	prof := machine.LargeX52()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(prof, nil, 72, 1)
		for j := 0; j < 72; j++ {
			e.Spawn(nil, func(*Ctx) {})
		}
		e.Run()
	}
}

// BenchmarkIdlePollers times one poll tick of a thread waiting in
// WaitUntil on a condition that stays false: one worker advances 150 ns
// per Checkpoint while N pollers tick every 500 ns, so every Checkpoint
// of the worker gives way to a few of them. ns/op is host time per tick
// (the worker's own hand-offs included); allocs/op must be 0.
func BenchmarkIdlePollers(b *testing.B) {
	for _, pollers := range []int{16, 64} {
		b.Run(fmt.Sprintf("pollers=%d", pollers), func(b *testing.B) {
			e := New(machine.LargeX52(), nil, pollers+1, 1)
			steps := b.N*500/(150*pollers) + 1
			done := false
			e.Spawn(nil, func(c *Ctx) {
				for j := 0; j < steps; j++ {
					c.Advance(150 * vtime.Nanosecond)
					c.Checkpoint()
				}
				done = true
			})
			for i := 0; i < pollers; i++ {
				e.Spawn(nil, func(c *Ctx) {
					c.WaitUntil(500*vtime.Nanosecond, func() bool { return done })
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}
