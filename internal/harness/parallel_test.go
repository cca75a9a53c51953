package harness

import (
	"testing"

	"natle/internal/expt"
	"natle/internal/vtime"
)

// microScale shrinks every sweep to the minimum that still exercises
// each plan's full structure (both machines, a cross-socket thread
// count, every series). The determinism test below runs EVERY plan
// twice, so this scale trades fidelity for wall clock; the byte-
// identity property itself is scale-independent (assembly is plan
// order at any -j), which is exactly what the test pins down.
func microScale() Scale {
	sc := QuickScale()
	sc.LargeThreads = []int{1, 42}
	sc.SmallThreads = []int{1, 2}
	sc.Dur /= 8
	sc.Warmup /= 8
	sc.NATLEDur /= 6
	sc.NATLEWarmup /= 6
	// Shorter NATLE cycles (profiling + 2 quanta) so a few full cycles
	// still fit inside the shrunken trials.
	sc.NATLE.ProfilingLen = 100 * vtime.Microsecond
	sc.NATLE.QuantumLen = 50 * vtime.Microsecond
	sc.NATLE.Quanta = 2
	// Service plans: one pre-knee and one post-knee rate over a short
	// window, and a two-step SLO bisection — every series and the shed
	// path still exercised.
	sc.ServiceWindow /= 4
	sc.ServiceRates = []float64{8e6, 32e6}
	sc.ServiceSLO.Iters = 2
	return sc
}

// TestPlansByteIdenticalAtAnyWorkerCount is the executor's headline
// guarantee: for every figure in the menu, rendering with one host
// worker and with several must produce byte-identical text and CSV.
// Trials are deterministic islands and assembly is strictly plan
// order, so any diff here means shared state leaked into a trial or
// completion order leaked into assembly.
// raceSkip lists the plans whose trials are long NATLE sweeps; under
// -race they dominate the package's wall clock (the detector slows the
// simulator several-fold). They exercise the exact same executor and
// pool as every other plan, so skipping them under -race loses no
// interleaving coverage — the remaining 19 plans still run both ways.
var raceSkip = map[string]bool{
	"fig02a":                      true,
	"fig06":                       true,
	"fig12":                       true,
	"fig13":                       true,
	"fig17":                       true,
	"ablation-remote-latency":     true,
	"ablation-profiling-len":      true,
	"ablation-quanta":             true,
	"ablation-adaptive-profiling": true,
}

func TestPlansByteIdenticalAtAnyWorkerCount(t *testing.T) {
	sc := microScale()
	for _, e := range Plans() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			if raceDetectorOn && raceSkip[e.ID] {
				t.Skip("heavy NATLE sweep; skipped under -race (same executor path as the other plans)")
			}
			seq := Exec(e.Build(sc), expt.Options{Workers: 1})
			par := Exec(e.Build(sc), expt.Options{Workers: 4})
			if s, p := seq.String(), par.String(); s != p {
				t.Errorf("String() differs between -j 1 and -j 4:\n--- j=1\n%s\n--- j=4\n%s", s, p)
			}
			if s, p := seq.CSV(), par.CSV(); s != p {
				t.Errorf("CSV() differs between -j 1 and -j 4:\n--- j=1\n%s\n--- j=4\n%s", s, p)
			}
		})
	}
}

// TestSameSeedSameBytes runs one plan per start-line driver
// (workload.Run, RunTwoTrees, stamp.Run, cctsa.Run, the delegation
// baseline) twice from one seed and compares bytes. Every worker of a
// trial leaves sim.Engine.SpawnTeam's start line at the same virtual
// instant, so these trials open on as many run-queue ties as they have
// threads; the order out of a tie must be the thread ID, never the
// layout the queue happened to have.
func TestSameSeedSameBytes(t *testing.T) {
	sc := microScale()
	for _, build := range []func(Scale) *expt.Plan{
		PlanFig01,
		PlanFig16,
		func(sc Scale) *expt.Plan { return PlanFig17(sc, []string{"ssca2"}) },
		func(sc Scale) *expt.Plan { return PlanFig18(sc, true) },
		func(sc Scale) *expt.Plan { return PlanDelegation(sc, []int{4}) },
	} {
		a := Exec(build(sc), expt.Options{Workers: 2})
		b := Exec(build(sc), expt.Options{Workers: 2})
		if a.String() != b.String() || a.CSV() != b.CSV() {
			t.Errorf("%s: two runs of one seed differ:\n%s\n%s", a.ID, a.String(), b.String())
		}
	}
}

// TestExecFoldsFailureNotes checks the harness-level contract for a
// panicking trial: the figure still renders, the surviving series keep
// their points, and the failure surfaces as a deterministic note.
func TestExecFoldsFailureNotes(t *testing.T) {
	p := &expt.Plan{ID: "x", Title: "T", XLabel: "n", YLabel: "y"}
	valueSeries(p, "ok", []int{1, 2}, func(n int) float64 { return float64(n) })
	p.Add(expt.TrialSpec{
		Key:    "bad/1",
		Run:    func() expt.Outcome { panic("injected") },
		Reduce: expt.Emit("bad", 1),
	})
	f := Exec(p, expt.Options{Workers: 4})
	if len(f.Series) != 1 || f.Series[0].Name != "ok" || len(f.Series[0].X) != 2 {
		t.Fatalf("series = %+v", f.Series)
	}
	if len(f.Notes) != 1 || f.Notes[0] != "trial bad/1 FAILED: injected" {
		t.Fatalf("notes = %v", f.Notes)
	}
}
