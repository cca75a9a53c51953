package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"natle/internal/backend"
	"natle/internal/fault"
	"natle/internal/scheme"
	"natle/internal/vtime"
	"natle/internal/workload"
)

// checkBenchShape asserts the structural invariants every
// BENCH_native.json must satisfy regardless of the host it was taken
// on: the full scheme x workload grid in registry order, one point
// per swept thread count, op totals that follow from the config.
func checkBenchShape(t *testing.T, b *NativeBench) {
	t.Helper()
	if b.Backend != string(backend.Native) {
		t.Errorf("backend = %q, want %q", b.Backend, backend.Native)
	}
	wls := workload.BackendWorkloads()
	if len(b.Workloads) != len(wls) {
		t.Fatalf("snapshot has %d workloads, want %d", len(b.Workloads), len(wls))
	}
	names := scheme.NamesFor(backend.Native)
	for i, bw := range b.Workloads {
		if bw.Workload != wls[i] {
			t.Errorf("workload[%d] = %q, want %q", i, bw.Workload, wls[i])
		}
		if len(bw.Schemes) != len(names) {
			t.Fatalf("workload %q has %d schemes, want %d", bw.Workload, len(bw.Schemes), len(names))
		}
		for j, bs := range bw.Schemes {
			if bs.Scheme != names[j] {
				t.Errorf("%s scheme[%d] = %q, want %q", bw.Workload, j, bs.Scheme, names[j])
			}
			if len(bs.Points) != len(b.Threads) {
				t.Fatalf("%s/%s has %d points, want %d", bw.Workload, bs.Scheme, len(bs.Points), len(b.Threads))
			}
			for k, p := range bs.Points {
				if p.Threads != b.Threads[k] {
					t.Errorf("%s/%s point %d threads = %d, want %d", bw.Workload, bs.Scheme, k, p.Threads, b.Threads[k])
				}
				if want := uint64(p.Threads) * uint64(b.OpsPerThread); p.Ops != want {
					t.Errorf("%s/%s @%d ops = %d, want %d", bw.Workload, bs.Scheme, p.Threads, p.Ops, want)
				}
				if p.OpsPerSec <= 0 {
					t.Errorf("%s/%s @%d ops_per_sec = %v, want > 0", bw.Workload, bs.Scheme, p.Threads, p.OpsPerSec)
				}
			}
		}
	}
}

func TestNativeBenchSnapshotShape(t *testing.T) {
	b := NativeBenchSnapshot(NativeSweepConfig{Base: workload.BackendConfig{Ops: 512, Seed: 1}, Threads: []int{1, 2}})
	checkBenchShape(t, b)
	if b.Host != Fingerprint() {
		t.Errorf("host fingerprint = %+v, want %+v", b.Host, Fingerprint())
	}
	buf, err := MarshalNativeBench(b)
	if err != nil {
		t.Fatal(err)
	}
	if buf[len(buf)-1] != '\n' {
		t.Error("marshaled snapshot missing trailing newline")
	}
}

// TestCommittedNativeBenchParses holds the committed snapshot to the
// structural contract: it must unmarshal into NativeBench with no
// unknown fields, cover the full scheme x workload grid, and carry
// the host fingerprint that explains (and scopes) its values.
func TestCommittedNativeBenchParses(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_native.json")
	if err != nil {
		t.Fatalf("committed snapshot unreadable (regenerate with make bench-snapshot): %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var b NativeBench
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCH_native.json does not match harness.NativeBench: %v", err)
	}
	checkBenchShape(t, &b)
	if b.Host.GoVersion == "" || b.Host.GOOS == "" || b.Host.GOARCH == "" || b.Host.CPUs <= 0 {
		t.Errorf("host fingerprint incomplete: %+v", b.Host)
	}
}

// TestNativeSweepFaultPlumbing: a fault-armed native sweep reports
// injected-fault counters on its results; a fault-free sweep reports
// none.
func TestNativeSweepFaultPlumbing(t *testing.T) {
	p := fault.Profile{StallProb: 1, StallLen: vtime.Microsecond}
	rs := NativeSweep(NativeSweepConfig{
		Base:    workload.BackendConfig{Lock: "native-mutex", Ops: 64, Seed: 1, Fault: &p},
		Threads: []int{2},
	})
	if len(rs) != 1 {
		t.Fatalf("got %d results, want 1", len(rs))
	}
	if rs[0].Fault.Stalls == 0 {
		t.Error("certain stalls on every acquisition never fired")
	}
	clean := NativeSweep(NativeSweepConfig{
		Base:    workload.BackendConfig{Lock: "native-mutex", Ops: 64, Seed: 1},
		Threads: []int{2},
	})
	if clean[0].Fault != (fault.Stats{}) {
		t.Errorf("fault-free sweep reported injected faults: %+v", clean[0].Fault)
	}
}
