package harness_test

// This file holds one benchmark per table and figure in the paper's
// evaluation, each regenerating its figure at a reduced sweep scale
// (bench-sized trials; cmd/figures -scale full produces the record in
// EXPERIMENTS.md). Key shape metrics are attached via b.ReportMetric:
// for the throughput figures, "cliff" is the 72-thread value relative
// to the 36-thread value of the first series — the quantity the paper
// is about.

import (
	"testing"

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

var benchFig *harness.Figure // sink

// reportCliff attaches t(72)/t(36) of the named series (or the first).
func reportCliff(b *testing.B, f *harness.Figure) {
	b.Helper()
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

func BenchmarkFig01AVLSpeedupBothMachines(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig01(sc)
	}
	reportCliff(b, benchFig)
}

func BenchmarkFig02aRetryPolicies(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig02a(sc)
	}
}

func BenchmarkFig02bCommitsAfterHintClear(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig02b(sc)
	}
	// Peak percentage across thread counts (the paper's <=4%).
	if len(benchFig.Series) > 0 {
		peak := 0.0
		for _, y := range benchFig.Series[0].Y {
			if y > peak {
				peak = y
			}
		}
		b.ReportMetric(peak, "peak-pct")
	}
}

func BenchmarkFig03ReadOnlyVs2pct(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig03(sc)
	}
	reportCliff(b, benchFig)
}

func BenchmarkFig04SearchReplace(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig04(sc)
	}
	reportCliff(b, benchFig)
}

func BenchmarkFig05AbortBreakdown(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig05(sc)
	}
}

func BenchmarkFig06CommitDelay(b *testing.B) {
	sc := benchScale()
	sc.Dur = 150 * vtime.Microsecond
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig06(sc)
	}
}

func BenchmarkFig07AVLvsLeafBST(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig07(sc)
	}
}

func BenchmarkLLCMissesDoNotAbort(b *testing.B) {
	var aborts, reads uint64
	for i := 0; i < b.N; i++ {
		r := harness.RunLLC(1<<16, false, 1)
		aborts, reads = r.Aborts, r.Reads
	}
	b.ReportMetric(float64(aborts), "aborts")
	b.ReportMetric(float64(reads), "reads")
}

func BenchmarkFig12AVLTLEvsNATLE(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig12(sc)
	}
}

func BenchmarkFig13BSTAndSkipList(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig13(sc)
	}
}

func BenchmarkFig14SmallKeyRangeBST(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig14(sc)
	}
}

func BenchmarkFig15PinningPolicies(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig15(sc)
	}
}

func BenchmarkFig16TwoTrees(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig16(sc)
	}
}

// Fig 17 benches: one per STAMP program (full grid in cmd/figures).
func benchStamp(b *testing.B, name string) {
	sc := benchScale()
	sc.LargeThreads = []int{1, 36, 72}
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig17(sc, []string{name})
	}
}

func BenchmarkFig17Genome(b *testing.B)       { benchStamp(b, "genome") }
func BenchmarkFig17Intruder(b *testing.B)     { benchStamp(b, "intruder") }
func BenchmarkFig17KMeansHigh(b *testing.B)   { benchStamp(b, "kmeans-high") }
func BenchmarkFig17KMeansLow(b *testing.B)    { benchStamp(b, "kmeans-low") }
func BenchmarkFig17Labyrinth(b *testing.B)    { benchStamp(b, "labyrinth") }
func BenchmarkFig17SSCA2(b *testing.B)        { benchStamp(b, "ssca2") }
func BenchmarkFig17VacationHigh(b *testing.B) { benchStamp(b, "vacation-high") }
func BenchmarkFig17VacationLow(b *testing.B)  { benchStamp(b, "vacation-low") }
func BenchmarkFig17Yada(b *testing.B)         { benchStamp(b, "yada") }

func BenchmarkFig18aCCTSAPinned(b *testing.B) {
	sc := benchScale()
	sc.LargeThreads = []int{1, 36, 72}
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig18(sc, true)
	}
}

func BenchmarkFig18bCCTSAModeTimeline(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig18b(sc)
	}
}

func BenchmarkFig18cCCTSAUnpinned(b *testing.B) {
	sc := benchScale()
	sc.LargeThreads = []int{1, 36, 72}
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig18(sc, false)
	}
}

func BenchmarkFig19aParaheapPinned(b *testing.B) {
	sc := benchScale()
	sc.LargeThreads = []int{1, 36, 72}
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig19(sc, true)
	}
}

func BenchmarkFig19bParaheapUnpinned(b *testing.B) {
	sc := benchScale()
	sc.LargeThreads = []int{1, 36, 72}
	for i := 0; i < b.N; i++ {
		benchFig = harness.Fig19(sc, false)
	}
}

func BenchmarkDelegationBaseline(b *testing.B) {
	sc := benchScale()
	sc.LargeThreads = []int{4, 18, 36}
	for i := 0; i < b.N; i++ {
		benchFig = harness.DelegationTable(sc, []int{1, 4})
	}
}

func BenchmarkLocksComparison(b *testing.B) {
	sc := benchScale()
	sc.LargeThreads = []int{4, 36, 72}
	for i := 0; i < b.N; i++ {
		benchFig = harness.LocksTable(sc)
	}
}

// Ablation benches for the design choices called out in DESIGN.md.

func BenchmarkAblationRemoteLatency(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.AblationRemoteLatency(sc)
	}
}

func BenchmarkAblationProfilingLen(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.AblationProfilingLen(sc)
	}
}

func BenchmarkAblationWarmupThreshold(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.AblationWarmupThreshold(sc)
	}
}

func BenchmarkAblationQuanta(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.AblationQuanta(sc)
	}
}

func BenchmarkAblationAdaptiveProfiling(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		benchFig = harness.AblationAdaptiveProfiling(sc)
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
