package harness_test

// BenchmarkPlans regenerates every figure and table in harness.Plans()
// at a reduced sweep scale (bench-sized trials; cmd/figures -scale full
// produces the record in EXPERIMENTS.md), one sub-benchmark per plan ID.
// Key shape metrics are attached via b.ReportMetric: for the throughput
// figures, "cliff" is the 72-thread value relative to the 36-thread
// value of the first series — the quantity the paper is about.

import (
	"slices"
	"testing"

	"natle/internal/expt"
	"natle/internal/harness"
	"natle/internal/telemetry"
	"natle/internal/vtime"
	"natle/internal/workload"
)

// benchScale is a trimmed sweep so `go test -bench=.` stays tractable
// on one host CPU while preserving every figure's shape.
func benchScale() harness.Scale {
	sc := harness.QuickScale()
	sc.LargeThreads = []int{1, 18, 36, 54, 72}
	sc.SmallThreads = []int{1, 4, 8}
	sc.Dur = 250 * vtime.Microsecond
	sc.Warmup = 100 * vtime.Microsecond
	sc.NATLE.ProfilingLen = 300 * vtime.Microsecond
	sc.NATLE.QuantumLen = 100 * vtime.Microsecond
	sc.NATLEDur = 2600 * vtime.Microsecond
	sc.NATLEWarmup = 1300 * vtime.Microsecond
	return sc
}

// shapeMetrics are the figure-specific metrics BenchmarkPlans reports
// beside ns/op, by plan ID.
var shapeMetrics = map[string]func(*testing.B, *harness.Figure){
	"fig01": reportCliff,
	"fig03": reportCliff,
	"fig04": reportCliff,
	// Peak percentage across thread counts (the paper's <=4%).
	"fig02b": func(b *testing.B, f *harness.Figure) {
		if len(f.Series) > 0 {
			b.ReportMetric(max(0, slices.Max(f.Series[0].Y)), "peak-pct")
		}
	},
	// The local variant's counts: almost every read misses, none abort.
	"llc": func(b *testing.B, f *harness.Figure) {
		for _, s := range f.Series {
			if s.Name == "aborts" || s.Name == "reads" {
				b.ReportMetric(s.Y[0], s.Name)
			}
		}
	},
}

// reportCliff attaches t(72)/t(36) of the first series.
func reportCliff(b *testing.B, f *harness.Figure) {
	if len(f.Series) == 0 {
		return
	}
	s := f.Series[0]
	var at36, at72 float64
	for i, x := range s.X {
		if x == 36 {
			at36 = s.Y[i]
		}
		if x == 72 {
			at72 = s.Y[i]
		}
	}
	if at36 > 0 {
		b.ReportMetric(at72/at36, "cliff-72v36")
	}
}

var benchFig *harness.Figure // sink

func BenchmarkPlans(b *testing.B) {
	sc := benchScale()
	for _, e := range harness.Plans() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchFig = harness.Exec(e.Build(sc), expt.Options{})
			}
			if m := shapeMetrics[e.ID]; m != nil {
				m(b, benchFig)
			}
		})
	}
}

// Substrate microbenchmarks (host performance of the simulator).

func BenchmarkSimulatorAccessRate(b *testing.B) {
	// Measures host nanoseconds per simulated memory access at high
	// thread counts — the quantity that determines how much virtual
	// time a given host budget buys.
	r := workload.Run(workload.Config{
		Threads:   36,
		Seed:      1,
		UpdatePct: 100,
		Duration:  vtime.Duration(b.N) * 20 * vtime.Microsecond,
		Warmup:    50 * vtime.Microsecond,
	})
	b.ReportMetric(float64(r.Ops)/float64(b.N), "sim-ops/iter")
}

// Telemetry overhead on the Fig 12 microbenchmark path (AVL, 100%
// updates, keys [0,2048), 36 threads): the no-op recorder vs a full
// collector vs a collector that also buffers the event trace. Compare
// ns/op across the three to see what recording costs the simulator.
func benchTelemetry(b *testing.B, rec telemetry.Recorder) {
	for i := 0; i < b.N; i++ {
		benchResult = workload.Run(workload.Config{
			Threads:   36,
			Seed:      1,
			UpdatePct: 100,
			KeyRange:  2048,
			Duration:  200 * vtime.Microsecond,
			Warmup:    50 * vtime.Microsecond,
			Recorder:  rec,
		})
	}
}

var benchResult *workload.Result // sink

func BenchmarkTelemetryOffNopRecorder(b *testing.B) {
	benchTelemetry(b, nil) // nil keeps the built-in no-op recorder
}

func BenchmarkTelemetryCountersOnly(b *testing.B) {
	benchTelemetry(b, telemetry.NewCollector(telemetry.Config{}))
}

func BenchmarkTelemetryCountersAndTrace(b *testing.B) {
	benchTelemetry(b, telemetry.NewCollector(telemetry.Config{TraceCap: 1 << 16}))
}

func BenchmarkSingleThreadAVLOps(b *testing.B) {
	r := workload.Run(workload.Config{
		Threads:   1,
		Seed:      1,
		UpdatePct: 100,
		Duration:  vtime.Duration(b.N) * 50 * vtime.Microsecond,
		Warmup:    20 * vtime.Microsecond,
	})
	b.ReportMetric(float64(r.Ops)/float64(b.N), "sim-ops/iter")
}
