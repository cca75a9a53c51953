package harness

import (
	"fmt"

	"natle/internal/expt"
)

// This file is the bridge between the declarative experiment layer
// (internal/expt) and the Figure renderer: every figure/table below is
// built as an expt.Plan — a grid of self-contained TrialSpecs — and
// Exec folds an executed plan into a Figure. Because each trial builds
// its own simulator from (config, seed), the pool may run them on any
// number of host workers; assembly order is plan order, so a Figure is
// byte-identical at any worker count.

// Exec executes a plan on a bounded worker pool (see expt.Options;
// Workers <= 0 selects GOMAXPROCS) and folds the result into a Figure.
func Exec(p *expt.Plan, opt expt.Options) *Figure {
	res := p.Execute(opt)
	f := &Figure{ID: p.ID, Title: p.Title, XLabel: p.XLabel, YLabel: p.YLabel}
	f.Notes = append(f.Notes, res.Notes...)
	for _, pt := range res.Points {
		f.Add(pt.Series, pt.X, pt.Y)
	}
	return f
}

// baselineKey names a series' explicit 1-thread baseline spec.
func baselineKey(series string) string { return series + "/baseline" }

// speedupSeries appends one series of a speedup figure to the plan: an
// explicit 1-thread baseline spec plus one spec per thread count, each
// visible point reduced to value(n)/value(baseline).
//
// The baseline is always a dedicated 1-thread trial — never "whatever
// thread count happens to come first in the scale" — so a scale that
// omits 1 still normalizes against the true single-thread run (the
// baseline spec is then hidden: it feeds the reducers but plots no
// point of its own).
func speedupSeries(p *expt.Plan, series string, threads []int, run func(n int) float64) {
	bk := baselineKey(series)
	has1 := false
	for _, n := range threads {
		if n == 1 {
			has1 = true
			break
		}
	}
	if !has1 {
		p.Add(expt.TrialSpec{
			Key:    bk,
			Run:    func() expt.Outcome { return expt.Value(run(1)) },
			Reduce: expt.Discard,
		})
	}
	for _, n := range threads {
		key := fmt.Sprintf("%s/%d", series, n)
		if n == 1 {
			key = bk
		}
		p.Add(expt.TrialSpec{
			Key:    key,
			Run:    func() expt.Outcome { return expt.Value(run(n)) },
			Reduce: expt.Ratio(series, float64(n), bk),
		})
	}
}

// valueSeries appends one spec per thread count, each plotting its
// scalar directly (throughput and runtime figures).
func valueSeries(p *expt.Plan, series string, threads []int, run func(n int) float64) {
	for _, n := range threads {
		p.Add(expt.TrialSpec{
			Key:    fmt.Sprintf("%s/%d", series, n),
			Run:    func() expt.Outcome { return expt.Value(run(n)) },
			Reduce: expt.Emit(series, float64(n)),
		})
	}
}

// PlanEntry pairs a figure id with its plan builder (the cmd/figures
// menu, the digest test and BenchmarkPlans all iterate this).
type PlanEntry struct {
	ID    string
	Build func(sc Scale) *expt.Plan
}

// Plans returns every figure/table as a plan entry, in the
// presentation order cmd/figures uses. Figures with extra knobs
// (fig17's benchmark subset, the llc array size, delegation batch
// sizes) appear with their cmd/figures defaults.
func Plans() []PlanEntry {
	return []PlanEntry{
		{"fig01", PlanFig01},
		{"fig02a", PlanFig02a},
		{"fig02b", PlanFig02b},
		{"fig03", PlanFig03},
		{"fig04", PlanFig04},
		{"fig05", PlanFig05},
		{"fig06", PlanFig06},
		{"fig07", PlanFig07},
		{"llc", func(sc Scale) *expt.Plan { return PlanLLC(1<<17, sc.Seed) }},
		{"fig12", PlanFig12},
		{"fig13", PlanFig13},
		{"fig14", PlanFig14},
		{"fig15", PlanFig15},
		{"fig16", PlanFig16},
		{"fig17", func(sc Scale) *expt.Plan { return PlanFig17(sc, nil) }},
		{"fig18a", func(sc Scale) *expt.Plan { return PlanFig18(sc, true) }},
		{"fig18b", PlanFig18b},
		{"fig18c", func(sc Scale) *expt.Plan { return PlanFig18(sc, false) }},
		{"fig19a", func(sc Scale) *expt.Plan { return PlanFig19(sc, true) }},
		{"fig19b", func(sc Scale) *expt.Plan { return PlanFig19(sc, false) }},
		{"delegation", func(sc Scale) *expt.Plan { return PlanDelegation(sc, []int{1, 4}) }},
		{"locks", PlanLocks},
		{"telemetry", PlanTelemetry},
		{"service-latency", PlanServiceLatency},
		{"service-slo", PlanServiceSLO},
		{"service-arrivals", PlanServiceArrivals},
		{"service-chaos", PlanServiceChaos},
		{"service-overload", PlanServiceOverload},
		{"ablation-remote-latency", PlanAblationRemoteLatency},
		{"ablation-profiling-len", PlanAblationProfilingLen},
		{"ablation-warmup-threshold", PlanAblationWarmupThreshold},
		{"ablation-quanta", PlanAblationQuanta},
		{"ablation-adaptive-profiling", PlanAblationAdaptiveProfiling},
	}
}
