package service

import (
	"testing"

	"natle/internal/vtime"
)

// BenchmarkSchedule times generating the arrival schedule of the
// benchmark's sim-service trial: Poisson arrivals at 8e6 req/s over
// 40 ms, 320 k requests. ns/op is per schedule; B/op shows whether the
// slice was sized once or doubled into.
func BenchmarkSchedule(b *testing.B) {
	cfg := Config{Seed: 1, Rate: 8e6, Window: 40 * vtime.Millisecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := len(cfg.Schedule()); n < 300000 {
			b.Fatalf("schedule has %d requests", n)
		}
	}
}
