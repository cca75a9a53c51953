// Package expt is the declarative experiment layer: a figure or table
// is a Plan — an ordered grid of named TrialSpecs — and a bounded
// worker pool executes the trials on host cores.
//
// Every trial in this repository is a self-contained deterministic
// island (it builds its own sim.Engine, htm.System, sets, locks, and
// telemetry recorder from a config and a seed), so trials may run in
// any order on any number of host goroutines without changing a single
// measured value. The executor preserves that determinism end to end:
//
//   - results are keyed by spec and assembled strictly in plan order,
//     never in completion order;
//   - reducers (speedup baselines, ratio denominators) read other
//     trials' outcomes only after the pool barrier, when every outcome
//     is final;
//   - a panicking trial fails that one trial — its points are dropped
//     and a deterministic note records the panic value — instead of
//     tearing down the whole sweep;
//   - per-trial notes (telemetry roll-ups, attribution tables) are
//     merged after the barrier, again in plan order.
//
// Consequently a Plan's output is byte-identical at any worker count,
// which the harness tests assert figure by figure.
package expt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Point is one rendered figure point: a named series and an (x, y)
// coordinate pair.
type Point struct {
	Series string
	X, Y   float64
}

// Outcome is what one trial produced. Simple scalar trials set Value
// (throughput, runtime, a percentage) and let a reducer shape it;
// multi-series trials emit Points directly; Notes carry per-trial
// annotations that the assembly merges in plan order.
type Outcome struct {
	Value  float64
	Points []Point
	Notes  []string
}

// Value wraps a scalar measurement as an Outcome.
func Value(v float64) Outcome { return Outcome{Value: v} }

// Lookup gives reducers read-only access to other trials' outcomes by
// spec key. The second result is false for unknown keys and for trials
// that failed (panicked), so a reducer never consumes a zero outcome
// as if it were measured.
type Lookup func(key string) (Outcome, bool)

// Reducer maps one trial's outcome to its final figure points once
// every trial in the plan has finished. Reducers run sequentially in
// plan order after the pool barrier; get resolves cross-trial
// references such as speedup baselines. A nil Reducer emits
// o.Points verbatim.
type Reducer func(o Outcome, get Lookup) []Point

// TrialSpec is one named, self-contained unit of simulated work.
type TrialSpec struct {
	// Key identifies the trial within its plan (unique; Execute panics
	// on duplicates). Reducers reference other trials by key.
	Key string
	// Run performs the trial. It executes on a pool worker and must be
	// self-contained: build the engine, run it, return the measurement.
	// It must not touch state shared with other trials.
	Run func() Outcome
	// Reduce shapes the outcome into figure points (nil emits
	// o.Points as-is).
	Reduce Reducer
}

// Plan is a declarative figure: rendering metadata plus the ordered
// trial grid.
type Plan struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Notes  []string
	Specs  []TrialSpec
}

// Add appends a spec and returns its key (convenience for builders).
func (p *Plan) Add(s TrialSpec) string {
	p.Specs = append(p.Specs, s)
	return s.Key
}

// TrialError records one trial's panic. The stack is for humans
// debugging the failure; assembly uses only the deterministic panic
// value.
type TrialError struct {
	Key   string
	Index int
	Value any    // the recovered panic value
	Stack string // worker stack at the point of the panic
}

func (e TrialError) Error() string {
	return fmt.Sprintf("trial %s: panic: %v", e.Key, e.Value)
}

// Result is an executed plan: outcomes by spec index, points and notes
// assembled in plan order, and the trials that failed.
type Result struct {
	Plan     *Plan
	Outcomes []Outcome // by spec index (zero value for failed trials)
	Points   []Point   // assembled in plan order
	Notes    []string  // plan notes, then per-trial notes in plan order
	Failed   []TrialError
}

// Options configure one Execute call.
type Options struct {
	// Workers bounds the pool (<= 0 selects GOMAXPROCS).
	Workers int
	// Progress, when non-nil, is called once per finished trial with
	// the completion count, the total, and the finished trial's key.
	// Calls are serialized but arrive in completion order, so progress
	// must go to logs/stderr — never into figure output.
	Progress func(done, total int, key string)
}

// Workers resolves a requested worker count: values <= 0 select
// GOMAXPROCS (the host's usable cores).
func Workers(j int) int {
	if j <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}

// Execute runs every spec on a bounded worker pool and assembles the
// result in plan order. It panics on duplicate spec keys (a plan
// construction bug); trial panics are captured per trial.
func (p *Plan) Execute(opt Options) *Result {
	n := len(p.Specs)
	index := make(map[string]int, n)
	for i, s := range p.Specs {
		if _, dup := index[s.Key]; dup {
			panic(fmt.Sprintf("expt: plan %s: duplicate spec key %q", p.ID, s.Key))
		}
		index[s.Key] = i
	}

	res := &Result{Plan: p, Outcomes: make([]Outcome, n)}
	errs := make([]*TrialError, n)

	var done atomic.Int32
	var progressMu sync.Mutex
	report := func(i int) {
		if opt.Progress == nil {
			return
		}
		d := int(done.Add(1))
		progressMu.Lock()
		opt.Progress(d, n, p.Specs[i].Key)
		progressMu.Unlock()
	}

	forEach(Workers(opt.Workers), n, func(i int) {
		defer report(i)
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &TrialError{
					Key:   p.Specs[i].Key,
					Index: i,
					Value: r,
					Stack: string(stack()),
				}
			}
		}()
		res.Outcomes[i] = p.Specs[i].Run()
	})

	// Assembly: strictly plan order, after the barrier.
	get := func(key string) (Outcome, bool) {
		i, ok := index[key]
		if !ok || errs[i] != nil {
			return Outcome{}, false
		}
		return res.Outcomes[i], true
	}
	res.Notes = append(res.Notes, p.Notes...)
	for i, s := range p.Specs {
		if errs[i] != nil {
			res.Failed = append(res.Failed, *errs[i])
			// The note uses only the panic value, which is as
			// deterministic as the trial itself, so output stays
			// byte-identical at any worker count.
			res.Notes = append(res.Notes, fmt.Sprintf("trial %s FAILED: %v", s.Key, errs[i].Value))
			continue
		}
		o := res.Outcomes[i]
		if s.Reduce != nil {
			res.Points = append(res.Points, s.Reduce(o, get)...)
		} else {
			res.Points = append(res.Points, o.Points...)
		}
		res.Notes = append(res.Notes, o.Notes...)
	}
	return res
}

// stack returns the current goroutine's stack (split out so the
// capture site stays small).
func stack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}
