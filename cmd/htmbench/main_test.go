package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"natle/internal/harness"
	"natle/internal/scheme"
	"natle/internal/sets"
	"natle/internal/workload"
)

// runMainEnv, set in a test binary's environment, makes it run
// htmbench's main on its arguments instead of the tests, so a test can
// run the command, exit paths included, as a child process.
const runMainEnv = "HTMBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCPUProfile: -cpuprofile writes a non-empty CPU profile, and
// -memprofile a heap profile, that pprof parses, on a run that ends
// normally and on one that exits 2 after the flags are parsed.
func TestCPUProfile(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to run pprof with")
	}
	service := []string{"-service", "-backend=native", "-rates", "1e5", "-shards", "1", "-servers", "1", "-ms", "5"}
	rejected := []string{"-service", "-backend=native", "-slo", "5"}
	for _, tc := range []struct {
		name, flag string
		args       []string
		code       int
	}{
		{"service", "-cpuprofile", service, 0},
		{"rejected", "-cpuprofile", rejected, 2},
		{"service-heap", "-memprofile", service, 0},
		{"rejected-heap", "-memprofile", rejected, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "prof.out")
			cmd := exec.Command(os.Args[0], append(tc.args, tc.flag, out)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			b, err := cmd.CombinedOutput()
			if code := cmd.ProcessState.ExitCode(); code != tc.code {
				t.Fatalf("htmbench exited %d (%v), want %d:\n%s", code, err, tc.code, b)
			}
			if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
				t.Fatalf("no profile written: %v", err)
			}
			if b, err := exec.Command(goCmd, "tool", "pprof", "-symbolize=none", "-raw", out).CombinedOutput(); err != nil {
				t.Fatalf("pprof cannot read the profile: %v\n%s", err, b)
			}
		})
	}
}

// TestNativeClosedLoopRejectsTelemetryFlags: the native closed loop
// records no telemetry, so -trace, -metrics and -telemetry make it exit
// 2, naming the modes that take them, before anything runs, and no
// trace or metrics file is created.
func TestNativeClosedLoopRejectsTelemetryFlags(t *testing.T) {
	dir := t.TempDir()
	for _, flag := range [][]string{
		{"-trace", filepath.Join(dir, "trace.json")},
		{"-metrics", filepath.Join(dir, "metrics.csv")},
		{"-telemetry"},
	} {
		t.Run(flag[0], func(t *testing.T) {
			args := append([]string{"-backend=native", "-threads", "1", "-ops", "16"}, flag...)
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			b, err := cmd.CombinedOutput()
			if code := cmd.ProcessState.ExitCode(); code != 2 {
				t.Fatalf("htmbench %v exited %d (%v), want 2:\n%s", args, code, err, b)
			}
			if !strings.Contains(string(b), "simulated sweep and the simulated -service") {
				t.Errorf("rejection names no modes:\n%s", b)
			}
			if len(flag) > 1 {
				if _, err := os.Stat(flag[1]); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("%s: file %s exists or cannot be checked (%v)", flag[0], flag[1], err)
				}
			}
		})
	}
}

// errAfter is an io.Writer that accepts n bytes and then fails — the
// shape of a disk filling up mid-snapshot.
type errAfter struct{ n int }

var errSinkFull = errors.New("sink full")

func (w *errAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errSinkFull
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errSinkFull
	}
	w.n -= len(p)
	return len(p), nil
}

// sampleServiceBench is a minimal but fully-populated SLO snapshot.
func sampleServiceBench() benchFile {
	return benchFile{
		Workload: "open-loop KV service",
		Machine:  "test",
		Arrival:  "poisson",
		Seed:     1,
		Schemes:  []benchEntry{{Scheme: "tle", Sustained: 1e6, LatencyUs: 2, Probes: 3}},
	}
}

// sampleNativeBench is a minimal native snapshot.
func sampleNativeBench() *harness.NativeBench {
	return &harness.NativeBench{
		Backend:      "native",
		OpsPerThread: 8,
		Seed:         1,
		Sockets:      2,
		Threads:      []int{1},
		Host:         harness.Fingerprint(),
		Workloads: []harness.NativeBenchWorkload{{
			Workload: "counter",
			Schemes: []harness.NativeBenchScheme{{
				Scheme: "native-tle",
				Points: []harness.NativeBenchPoint{{Threads: 1, Ops: 8, OpsPerSec: 1}},
			}},
		}},
	}
}

// TestWriteServiceBenchPropagatesWriteErrors: a writer that fails —
// immediately or mid-stream — must surface the error; a healthy writer
// must receive valid, newline-terminated JSON.
func TestWriteServiceBenchPropagatesWriteErrors(t *testing.T) {
	out := sampleServiceBench()
	if err := writeServiceBench(&errAfter{n: 0}, out); !errors.Is(err, errSinkFull) {
		t.Errorf("immediate failure not propagated: %v", err)
	}
	if err := writeServiceBench(&errAfter{n: 10}, out); !errors.Is(err, errSinkFull) {
		t.Errorf("mid-stream failure not propagated: %v", err)
	}
	var buf bytes.Buffer
	if err := writeServiceBench(&buf, out); err != nil {
		t.Fatalf("healthy writer failed: %v", err)
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("\n")) {
		t.Error("snapshot missing trailing newline")
	}
	var back benchFile
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(back, out) {
		t.Errorf("round trip diverged:\n%+v\n%+v", back, out)
	}
}

// TestWriteNativeBenchPropagatesWriteErrors mirrors the service test
// for the native snapshot path.
func TestWriteNativeBenchPropagatesWriteErrors(t *testing.T) {
	snap := sampleNativeBench()
	if err := writeNativeBench(&errAfter{n: 0}, snap); !errors.Is(err, errSinkFull) {
		t.Errorf("immediate failure not propagated: %v", err)
	}
	if err := writeNativeBench(&errAfter{n: 25}, snap); !errors.Is(err, errSinkFull) {
		t.Errorf("mid-stream failure not propagated: %v", err)
	}
	var buf bytes.Buffer
	if err := writeNativeBench(&buf, snap); err != nil {
		t.Fatalf("healthy writer failed: %v", err)
	}
	var back harness.NativeBench
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
}

// TestNativeWorkloadFlagMatchesRegistry holds the -workload flag help
// and the backend-workload registry in agreement: every registered
// workload is named in the help text, and the help text names only
// registered workloads — so adding a workload without updating either
// side fails fast.
func TestNativeWorkloadFlagMatchesRegistry(t *testing.T) {
	help := nativeWorkloadHelp()
	reg := workload.BackendWorkloads()
	if len(reg) == 0 {
		t.Fatal("workload.BackendWorkloads() is empty")
	}
	const prefix = "native backend: workload: "
	if !strings.HasPrefix(help, prefix) {
		t.Fatalf("flag help %q lacks prefix %q", help, prefix)
	}
	named := strings.Split(strings.TrimPrefix(help, prefix), " | ")
	if !reflect.DeepEqual(named, reg) {
		t.Fatalf("flag help names %v, registry has %v", named, reg)
	}
	for _, wl := range named {
		if !workload.IsBackendWorkload(wl) {
			t.Errorf("flag help names %q but IsBackendWorkload rejects it", wl)
		}
	}
	if workload.IsBackendWorkload("no-such-workload") {
		t.Error("IsBackendWorkload accepts an unregistered name")
	}
}

// TestSetFlagMatchesKinds holds the -set flag help and its validation
// to sets.Kinds(): the help names every kind, in order, and nothing
// else; checkSet accepts each kind and rejects any other name with an
// error listing the kinds, so a bad -set exits 2 on the sim backend as
// on the native one.
func TestSetFlagMatchesKinds(t *testing.T) {
	var kinds []string
	for _, k := range sets.Kinds() {
		kinds = append(kinds, string(k))
		if err := checkSet(string(k)); err != nil {
			t.Errorf("checkSet rejects kind %q: %v", k, err)
		}
	}
	const prefix = "set: "
	help := setHelp()
	if !strings.HasPrefix(help, prefix) {
		t.Fatalf("flag help %q lacks prefix %q", help, prefix)
	}
	if named := strings.Split(strings.TrimPrefix(help, prefix), " | "); !reflect.DeepEqual(named, kinds) {
		t.Errorf("flag help names %v, sets.Kinds() is %v", named, kinds)
	}
	err := checkSet("foo")
	if err == nil {
		t.Fatal(`checkSet accepts "foo"`)
	}
	for _, k := range kinds {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("rejection %q does not list kind %q", err, k)
		}
	}
}

// TestCommittedServiceBenchShape is the bench-check structural gate on
// the committed BENCH_service.json: it must parse into benchFile with
// no unknown fields, and its scheme grid must be exactly the
// batch-capable registry schemes in registry order — so a registry
// change without `make bench-snapshot` fails fast.
func TestCommittedServiceBenchShape(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_service.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var b benchFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCH_service.json does not match the benchFile shape: %v", err)
	}
	want := scheme.BatchNames()
	var got []string
	for _, e := range b.Schemes {
		got = append(got, e.Scheme)
		if e.Sustained < 0 || e.Probes <= 0 {
			t.Errorf("scheme %s: implausible entry %+v", e.Scheme, e)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot scheme grid %v != batch-capable registry %v (run `make bench-snapshot`)", got, want)
	}
	if b.Quantile != 0.99 || b.Seed == 0 || b.WindowUs <= 0 {
		t.Errorf("snapshot header fields implausible: %+v", b)
	}
	if !bytes.HasSuffix(buf, []byte("\n")) {
		t.Error("BENCH_service.json missing trailing newline")
	}
}

// TestServiceTakesKeysAndUpdates: -keys and -updates reach the service
// config when given, so each changes the simulated -service output;
// -updates 0 is a read-only service. Without them the service keeps its
// own defaults (4096 keys, 50% updates), which an explicit -updates 50
// reproduces byte for byte.
func TestServiceTakesKeysAndUpdates(t *testing.T) {
	run := func(extra ...string) string {
		args := append([]string{"-service", "-rates", "2e6", "-ms", "0.2"}, extra...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		b, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("htmbench %v: %v\n%s", args, err, b)
		}
		return string(b)
	}
	base := run()
	for _, args := range [][]string{{"-updates", "0"}, {"-keys", "64"}} {
		if run(args...) == base {
			t.Errorf("htmbench -service %v prints what the defaults print:\n%s", args, base)
		}
	}
	if got := run("-updates", "50"); got != base {
		t.Errorf("-updates 50 differs from the service default:\n%s\nwant\n%s", got, base)
	}
}
