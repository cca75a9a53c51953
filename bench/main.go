// Command bench is the repository's benchmark: five workloads across the
// simulator, the native backend and the service, four end-to-end
// metrics each, and a per-layer ledger of micro-kernels and counters,
// all measured from outside through the layers' exported functions.
// BENCHMARK.json at the repository root names it; README.md here says
// what every number means.
//
// Wall-clock time is this package's subject, so it declares itself a
// native-backend package to the determinism analyzer.
//
//natlevet:backend native
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"natle/internal/backend"
	"natle/internal/scheme"
)

// Exit codes beyond 0 and 1 (a failed check or a broken run).
const (
	exitUsage   = 2
	exitSkipped = 3 // the host cannot run the workload; no result is printed
)

func main() {
	os.Exit(run(os.Args[1:], thisHost(), os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     string
	check     bool
	quick     bool
	selfcheck bool
	spec      bool
}

func run(args []string, h host, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "host seconds of timed trials per workload")
	fs.StringVar(&o.trace, "trace", "0", "0: end-to-end run; 1 or a file name: traced run (kernels, one trial of every workload, spans written as JSON)")
	fs.BoolVar(&o.check, "check", true, "verify outputs")
	fs.BoolVar(&o.quick, "quick", false, "tiny sizes, one rep: structure only, numbers mean nothing")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end set twice and compare the medians against the bounds")
	fs.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return exitUsage
	}
	switch {
	case o.spec:
		stdout.Write(specJSON())
		return 0
	case o.selfcheck:
		return selfcheck(o, stdout, stderr)
	case o.workload == "all":
		return runAll(o, stdout, stderr)
	}
	if !slices.Contains(workloadNames(), o.workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return exitUsage
	}
	e := &env{host: h, seed: o.seed, quick: o.quick, check: o.check, out: stdout}
	fmt.Fprintf(stdout, "host: %s\n", h.fingerprint())
	if o.trace != "0" && o.trace != "" {
		return runTraced(e, o, stdout, stderr)
	}
	return runEndToEnd(e, o, stdout, stderr)
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// result is the line the contract asks for: the last line of standard
// output of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the problems and the result line and picks the exit
// code. A declared metric without a value is a broken run, not a green
// one: nothing is printed for it.
func finish(specs []metricSpec, values map[string]float64, rep *report, stdout, stderr io.Writer) int {
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "check failed: %s\n", p)
	}
	res := result{Correct: rep.correct(), Attempted: max(rep.attempted, 1), Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			fmt.Fprintf(stderr, "bench: metric %s has no value\n", m.Name)
			return 1
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	j, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", j)
	if !rep.correct() {
		return 1
	}
	return 0
}

// skipIfTooFewCPUs reports a native workload the host cannot run.
func skipIfTooFewCPUs(e *env, name string) bool {
	if isNative(name) && e.host.cpus < nativeWorkers {
		fmt.Fprintf(e.out, "skipped: %s needs %d CPUs, host has %d\n", name, nativeWorkers, e.host.cpus)
		return true
	}
	return false
}

// freshHeap collects garbage and hands every free page back to the
// operating system, so that each set-up sample and each trial starts
// from the same heap, the one a fresh process has. Without it the
// allocator sometimes reuses a previous trial's pages and sometimes
// maps new ones beside them, depending on how far the background
// scavenger got, and set-up time and peak memory flip between two
// values from run to run.
func freshHeap() { debug.FreeOSMemory() }

// runEndToEnd measures one workload with tracing off: a set-up, one
// warm-up trial, then timed trials for o.seconds with further set-ups
// in between.
func runEndToEnd(e *env, o options, stdout, stderr io.Writer) int {
	if skipIfTooFewCPUs(e, o.workload) {
		return exitSkipped
	}
	r, err := newRunner(o.workload, e)
	if err != nil {
		fmt.Fprintf(stdout, "skipped: %v\n", err)
		return exitSkipped
	}
	minReps, gap := 3, 250*time.Millisecond
	if e.quick {
		minReps, gap, o.seconds = 1, 0, 0
	}

	// Set-ups are sampled all through the run, one before the warm-up
	// trial and up to three (a quarter of a second's worth, one at least)
	// after a timed trial: this host's speed shifts by a fifth for
	// seconds at a time, and samples taken together would all see the
	// same regime. An expensive set-up (sim-sets: a third of a trial)
	// skips some trials, so that set-ups take at most a fifth of the
	// time the trials do.
	var setup []float64
	var setupSpent float64
	speed := hostSpeed(o.workload)
	sampleSetups := func(budget time.Duration) {
		begin := time.Now()
		for n := 0; n == 0 || (n < 3 && time.Since(begin) < budget); n++ {
			freshHeap()
			s0 := speed()
			took := r.setup(e).Seconds()
			setup = append(setup, took*(s0+speed())/2)
		}
		setupSpent += time.Since(begin).Seconds()
	}
	begin := time.Now()
	sampleSetups(0)
	rep := &report{}
	freshHeap()
	r.trial(e, rep) // warm-up: heap growth, and the determinism reference of the sim workloads
	fmt.Fprintf(stdout, "time_to_first_timed_trial_s: %.3f\n", time.Since(begin).Seconds())

	var thr, cpu []float64
	var ops, wall [][]float64 // per part of a trial, over the trials
	info := map[string][]float64{}
	var timed float64 // seconds spent in timed trials so far
	for {
		freshHeap()
		s0 := speed()
		t, c0 := time.Now(), cpuSeconds()
		tr := r.trial(e, rep)
		timed += time.Since(t).Seconds()
		cpuUs := (cpuSeconds() - c0) / float64(max(tr.ops(), 1)) * 1e6
		rel := (s0 + speed()) / 2 // 1 on the native workloads
		cpu = append(cpu, cpuUs*rel)
		thr = append(thr, tr.throughput()/rel)
		if ops == nil {
			ops, wall = make([][]float64, len(tr.parts)), make([][]float64, len(tr.parts))
		}
		for i, p := range tr.parts {
			ops[i], wall[i] = append(ops[i], float64(p.ops)), append(wall[i], p.wall*rel)
		}
		for k, v := range tr.info {
			info[k] = append(info[k], v)
		}
		if !isNative(o.workload) {
			info["core_speed"] = append(info["core_speed"], rel)
			info["uncorrected_ops_per_host_s"] = append(info["uncorrected_ops_per_host_s"], tr.throughput())
		}
		if setupSpent < timed/5 {
			sampleSetups(gap)
		}
		// Stop when the next trial would overshoot --seconds by more
		// than it undershoots now.
		if n := len(thr); n >= minReps && timed+timed/float64(n)/2 > o.seconds {
			break
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	// A trial of several parts (schemes, rungs) is disturbed when any of
	// them is, so the median is taken per part and the parts are summed
	// afterwards: the throughput of a trial made of typical parts.
	var sumOps, sumWall float64
	for i := range ops {
		sumOps += median(ops[i])
		sumWall += median(wall[i])
	}

	fmt.Fprintf(stdout, "workload %s seed %d\n", o.workload, o.seed)
	fmt.Fprintf(stdout, "  setup_s         %s\n", distLine(setup))
	fmt.Fprintf(stdout, "  ops_per_host_s  %.6g; per trial %s\n", ratio(sumOps, sumWall), distLine(thr))
	fmt.Fprintf(stdout, "  cpu_us_per_op   %s\n", distLine(cpu))
	fmt.Fprintf(stdout, "  peak_rss_mb     %.2f\n", rss)
	for _, k := range slices.Sorted(maps.Keys(info)) {
		fmt.Fprintf(stdout, "  (%s)  %s\n", k, distLine(info[k]))
	}
	return finish(endToEnd, map[string]float64{
		"setup_s":        median(setup),
		"ops_per_host_s": ratio(sumOps, sumWall),
		"cpu_us_per_op":  median(cpu),
		"peak_rss_mb":    rss,
	}, rep, stdout, stderr)
}

// runTraced is the separate traced run: every kernel and one trial of
// every workload, with the benchmark's spans around each call into a
// layer, then one more trial of the named workload with tracing off to
// price the tracing itself.
func runTraced(e *env, o options, stdout, stderr io.Writer) int {
	path := o.trace
	if path == "1" {
		path = filepath.Join(".bench_out", fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	}
	e.tr = newTracer()
	rep := &report{}
	layer := map[string]float64{}
	spin := 200_000_000
	if e.quick {
		spin = 2_000_000
	}

	layer["host.spin_mops_before"] = spinMops(spin)
	runKernels(e, rep, layer)

	skipped := false
	for _, w := range workloadSpecs {
		if skipIfTooFewCPUs(e, w.Name) {
			skipped = true
			continue
		}
		r, err := newRunner(w.Name, e)
		if err != nil {
			fmt.Fprintf(stdout, "skipped: %v\n", err)
			skipped = true
			continue
		}
		freshHeap()
		tr := r.trial(e, rep)
		for k, v := range tr.layer {
			layer[k] = v
		}
		if ns, ok := r.(*nativeService); ok {
			sp := e.tr.begin("flood")
			layer["service.flood_goodput_rps"] = ns.flood(e, rep)
			e.tr.end(sp)
		}
		untraced := *e
		untraced.tr = nil
		if w.Name == o.workload {
			freshHeap()
			layer["trace_overhead_frac"] = 1 - ratio(tr.throughput(), r.trial(&untraced, rep).throughput())
		}
		if _, ok := r.(*simSets); ok {
			untraced.allPs = true
			freshHeap()
			layer["sim.gomaxprocs_slowdown"] = ratio(tr.throughput(), r.trial(&untraced, rep).throughput())
		}
	}
	layer["host.spin_mops_after"] = spinMops(spin)
	zeroUnregistered(layer, nativeSchemes)

	if err := e.tr.write(path); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(e.tr.spans), path)
	for _, m := range perLayer {
		if v, ok := layer[m.Name]; ok {
			fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	if skipped {
		// Some layer has no number on this host: say so above and print
		// no result, rather than a ledger with holes that reads green.
		return exitSkipped
	}
	return finish(perLayer, layer, rep, stdout, stderr)
}

// zeroUnregistered gives the per-layer rows of a scheme the registry no
// longer has the value 0 (its skipped: line was printed when the schemes
// were resolved), so deleting a scheme leaves no hole in the ledger.
func zeroUnregistered(layer map[string]float64, names []nativeScheme) {
	for _, s := range names {
		if _, err := scheme.LookupFor(backend.Native, s.Name); err == nil {
			continue
		}
		for _, m := range perLayer {
			if strings.HasPrefix(m.Name, "native."+s.Tag+".") {
				layer[m.Name] = 0
			}
		}
	}
}

// child runs one workload in a fresh process of this binary, so set-up
// time and peak memory are the workload's own, and returns its result
// line. Its human-readable output is passed through.
func child(o options, workload string, stdout, stderr io.Writer) (*result, int) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return nil, 1
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", o.trace, fmt.Sprintf("-check=%t", o.check), fmt.Sprintf("-quick=%t", o.quick)}
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &buf, stderr
	err = cmd.Run()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	var res result
	if json.Unmarshal([]byte(last), &res) == nil && res.Metrics != nil {
		lines = lines[:len(lines)-1]
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, ee.ExitCode()
		}
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return nil, 1
	}
	return &res, 0
}

// runAll runs every workload in a child process each and prints the
// union of their results. The benchmark measures; it claims nothing.
func runAll(o options, stdout, stderr io.Writer) int {
	type entry struct {
		Workload string  `json:"workload"`
		Skipped  bool    `json:"skipped,omitempty"`
		Result   *result `json:"result,omitempty"`
	}
	var all []entry
	code := 0
	for _, w := range workloadNames() {
		res, c := child(o, w, stdout, stderr)
		switch c {
		case 0:
			all = append(all, entry{Workload: w, Result: res})
			if !res.Correct {
				code = 1
			}
		case exitSkipped:
			all = append(all, entry{Workload: w, Skipped: true})
		default:
			fmt.Fprintf(stderr, "bench: workload %s exited with code %d\n", w, c)
			code = 1
		}
	}
	j, err := json.Marshal(struct {
		Workloads []entry `json:"workloads"`
		Claim     any     `json:"claim"`
	}{all, nil})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", j)
	return code
}

// selfcheck runs the end-to-end set twice back to back on this binary
// and compares the two medians of every metric on every workload
// against the metric's bound: the evidence that a bound is wider than
// the noise, and the tool for choosing rep counts.
func selfcheck(o options, stdout, stderr io.Writer) int {
	o.trace = "0"
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, w := range workloadNames() {
			res, c := child(o, w, io.Discard, stderr)
			switch c {
			case 0:
				sets[i][w] = res
			case exitSkipped:
				fmt.Fprintf(stdout, "skipped: %s cannot run on this host\n", w)
			default:
				fmt.Fprintf(stderr, "bench: workload %s exited with code %d\n", w, c)
				return 1
			}
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-16s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, w := range workloadNames() {
		a, b := sets[0][w], sets[1][w]
		if a == nil || b == nil {
			continue
		}
		for _, m := range endToEnd {
			x, y := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			worse := ratio(y-x, x) // how much the second run is worse than the first
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.Abs(worse) > m.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-16s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n", w, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintln(stdout, `{"claim": null}`)
	return code
}
