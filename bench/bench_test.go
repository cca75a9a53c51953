package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"natle/internal/workload"
)

// These tests assert structure only: names, counts, which metrics a run
// emits, exit codes, span shape. No wall-clock value is compared with
// anything (timing claims do not belong in `go test`).

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecFitsTheContract(t *testing.T) {
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s with unit s and better lower")
	}
	for _, m := range perLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if n := len(specJSON()); n > 64<<10 {
		t.Errorf("BENCHMARK.json would be %d bytes, limit 64 KiB", n)
	}
}

func TestBenchmarkJSONIsGenerated(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Error("../BENCHMARK.json differs from spec.go; regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
}

// runBench runs the benchmark in-process on a host with the given CPU
// count and returns exit code, standard output and the parsed result
// line (nil when the last line is not one).
func runBench(t *testing.T, cpus int, args ...string) (int, string, *result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, host{cpus: cpus}, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("stderr of %v:\n%s", args, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Metrics == nil {
		return code, stdout.String(), nil
	}
	return code, stdout.String(), &res
}

// sameNames fails unless the result carries exactly the metrics of the
// spec, each with the spec's unit.
func sameNames(t *testing.T, what string, res *result, specs []metricSpec) {
	t.Helper()
	want := map[string]string{}
	for _, m := range specs {
		want[m.Name] = m.Unit
	}
	for name, unit := range want {
		if got, ok := res.Metrics[name]; !ok {
			t.Errorf("%s: metric %s of BENCHMARK.json is not emitted", what, name)
		} else if got.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, spec says %q", what, name, got.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: emitted metric %s is not in BENCHMARK.json", what, name)
		}
	}
}

func TestQuickEndToEnd(t *testing.T) {
	cpus := runtime.NumCPU()
	for _, w := range workloadNames() {
		code, out, res := runBench(t, cpus, "-workload", w, "-quick", "-seed", "7")
		if isNative(w) && cpus < nativeWorkers {
			if code != exitSkipped || res != nil || !strings.Contains(out, "skipped: "+w+" needs 2 CPUs") {
				t.Errorf("%s on %d CPU: code %d, want a skipped: line, code %d and no result\n%s", w, cpus, code, exitSkipped, out)
			}
			continue
		}
		if code != 0 || res == nil {
			t.Fatalf("%s: exit code %d, result %v\n%s", w, code, res, out)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		sameNames(t, w, res, endToEnd)
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w, name, v.Value)
			}
		}
	}
}

func TestQuickTracedRun(t *testing.T) {
	cpus := runtime.NumCPU()
	path := filepath.Join(t.TempDir(), "spans.json")
	code, out, res := runBench(t, cpus, "-workload", "sim-service", "-quick", "-trace", path)
	if cpus < nativeWorkers {
		if code != exitSkipped || res != nil || !strings.Contains(out, "skipped: native-sets needs 2 CPUs") {
			t.Fatalf("traced run on %d CPU: code %d, want skipped: lines, code %d and no result\n%s", cpus, code, exitSkipped, out)
		}
	} else {
		if code != 0 || res == nil {
			t.Fatalf("exit code %d, result %v\n%s", code, res, out)
		}
		if !res.Correct {
			t.Errorf("traced run reports correct=false\n%s", out)
		}
		sameNames(t, "traced run", res, perLayer)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	children := map[int]map[string]bool{} // trial span id -> names of its children
	trials := map[int]span{}
	kernels := 0
	for _, s := range doc.Spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		switch {
		case strings.HasPrefix(s.Name, "trial:"):
			trials[s.ID] = s
			children[s.ID] = map[string]bool{}
			if s.Run == 0 {
				t.Errorf("trial span %s has no run id", s.Name)
			}
		case strings.HasPrefix(s.Name, "kernel:"):
			kernels++
		}
	}
	for _, s := range doc.Spans {
		if tr, ok := trials[s.Parent]; ok {
			children[s.Parent][s.Name] = true
			if s.Run != tr.Run {
				t.Errorf("span %s of %s has run %d, its trial has %d", s.Name, tr.Name, s.Run, tr.Run)
			}
		}
	}
	if len(trials) == 0 || kernels == 0 {
		t.Fatalf("%d trial spans and %d kernel spans", len(trials), kernels)
	}
	for id, tr := range trials {
		for _, want := range []string{"world.build", "workload.setup", "workload.timed", "check"} {
			if !children[id][want] {
				t.Errorf("%s has no %s span", tr.Name, want)
			}
		}
	}
}

func TestOneCPUHost(t *testing.T) {
	for _, w := range []string{"native-sets", "native-counter", "native-service"} {
		code, out, res := runBench(t, 1, "-workload", w, "-quick")
		if code != exitSkipped || res != nil || !strings.Contains(out, "skipped: "+w+" needs 2 CPUs") {
			t.Errorf("%s on 1 CPU: code %d, want a skipped: line, code %d and no result\n%s", w, code, exitSkipped, out)
		}
	}
	// The simulator does not care how many CPUs the host has.
	if code, out, res := runBench(t, 1, "-workload", "sim-sets", "-quick"); code != 0 || res == nil {
		t.Errorf("sim-sets on 1 CPU: code %d\n%s", code, out)
	}
}

func TestUnregisteredSchemeIsSkipped(t *testing.T) {
	var out bytes.Buffer
	names := append(append([]nativeScheme(nil), nativeSchemes...), nativeScheme{"bogus", "native-bogus"})
	got := resolveSchemeNames(&out, names)
	if len(got) != len(nativeSchemes) {
		t.Errorf("resolved %d schemes, want the %d registered ones", len(got), len(nativeSchemes))
	}
	if want := "skipped: native-bogus not registered\n"; out.String() != want {
		t.Errorf("printed %q, want %q", out.String(), want)
	}

	// Its per-layer rows read 0 instead of leaving a hole in the ledger.
	layer := map[string]float64{}
	zeroUnregistered(layer, []nativeScheme{{"striped", "native-bogus"}})
	for _, m := range perLayer {
		_, zeroed := layer[m.Name]
		if strings.HasPrefix(m.Name, "native.striped.") != zeroed {
			t.Errorf("metric %s: zeroed=%v", m.Name, zeroed)
		}
	}
}

func TestFailedChecksumFailsTheRun(t *testing.T) {
	rep := &report{}
	good := &workload.BackendResult{Ops: 20, Check: 20}
	checkBackend(rep, workload.BackendCounter, "native-tle", good, good)
	if !rep.correct() {
		t.Fatalf("a correct counter trial was reported: %v", rep.problems)
	}
	checkBackend(rep, workload.BackendCounter, "native-tle", &workload.BackendResult{Ops: 20, Check: 19}, good)
	if rep.correct() || rep.failed != 20 {
		t.Errorf("a lost increment: correct=%v failed=%d, want false and 20", rep.correct(), rep.failed)
	}

	rep = &report{}
	first := &workload.BackendResult{Ops: 10, Check: 0xabc}
	checkBackend(rep, workload.BackendSets, "native-mutex", first, first)
	checkBackend(rep, workload.BackendSets, "native-tle", &workload.BackendResult{Ops: 10, Check: 0xabd}, first)
	if rep.correct() || rep.failed != 10 {
		t.Errorf("two schemes disagree on the set contents: correct=%v failed=%d, want false and 10", rep.correct(), rep.failed)
	}

	var stdout, stderr bytes.Buffer
	values := map[string]float64{}
	for _, m := range endToEnd {
		values[m.Name] = 1
	}
	if code := finish(endToEnd, values, rep, &stdout, &stderr); code == 0 {
		t.Error("finish returned 0 for a report with a failed check")
	}
	if !strings.Contains(stdout.String(), `"correct":false`) || !strings.Contains(stderr.String(), "check failed:") {
		t.Errorf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
