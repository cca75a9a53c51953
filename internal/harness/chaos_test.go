package harness

import (
	"bytes"
	"strings"
	"testing"

	"natle/internal/backend"
	"natle/internal/fault"
	"natle/internal/scheme"
	"natle/internal/telemetry"
	"natle/internal/vtime"
	"natle/internal/workload"
)

// shortChaos keeps the matrix cheap enough for the regular (and -race)
// test run while still firing every schedule's faults on both worlds.
func shortChaos() ChaosConfig { return ChaosConfig{Threads: 4, Ops: 96, Seed: 1} }

// chaosTrial is one shortChaos trial of lock on workload wl.
func chaosTrial(lock, wl string) workload.BackendConfig {
	c := shortChaos()
	return workload.BackendConfig{Lock: lock, Workload: wl, Threads: c.Threads, Ops: c.Ops, Seed: c.Seed}
}

// simReport renders the sim cells' lines: the deterministic half of
// the report.
func simReport(cells []ChaosCell) string {
	var b strings.Builder
	for _, c := range cells {
		if c.Backend == backend.Sim {
			b.WriteString(c.String() + "\n")
		}
	}
	return b.String()
}

// TestChaosMatrixHoldsInvariants is the acceptance gate: every named
// fault schedule, against every robust scheme of both backends, over
// every backend-agnostic workload, must hold the cell's laws; every
// (backend, schedule) pair must actually inject faults; and the sim
// half of the report must replay byte for byte at any pool size.
func TestChaosMatrixHoldsInvariants(t *testing.T) {
	kinds := []backend.Kind{backend.Sim, backend.Native}
	cfg := shortChaos()
	cfg.Parallel = 4
	cells, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	robust := 0
	for _, k := range kinds {
		for _, d := range scheme.AllFor(k) {
			if d.Mutex && d.Robust {
				robust++
			}
		}
	}
	if want := len(fault.ScheduleNames()) * robust * len(workload.BackendWorkloads()); len(cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(cells), want)
	}
	injected := map[string]bool{}
	for _, c := range cells {
		if !c.Ok() {
			t.Errorf("%s/%s/%s/%s: %v", c.Backend, c.Schedule, c.Scheme, c.Workload, c.Failures)
		}
		if c.Fault != (fault.Stats{}) {
			injected[string(c.Backend)+"/"+c.Schedule] = true
		}
	}
	for _, k := range kinds {
		for _, s := range fault.ScheduleNames() {
			if !injected[string(k)+"/"+s] {
				t.Errorf("%s/%s: no cell injected any fault", k, s)
			}
		}
	}

	report := simReport(cells)
	for _, p := range []int{4, 1} {
		cfg.Parallel = p
		again, err := RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := simReport(again); got != report {
			t.Errorf("sim lines differ on a rerun at Parallel %d:\n%s\nwant:\n%s", p, got, report)
		}
	}
}

// TestCrossBackendChaosConformance runs every named schedule through
// the one chaos cell on both worlds: the sim cell must replay byte for
// byte, Chrome trace and counters both — the replayability contract
// chaos debugging rests on — and the native cell must hold the same
// laws against the same fault-free reference.
func TestCrossBackendChaosConformance(t *testing.T) {
	sim := chaosTrial("tle-robust", workload.BackendSets)
	nat := chaosTrial("native-tle", workload.BackendSets)
	want := chaosReference(sim)
	for _, sn := range fault.ScheduleNames() {
		t.Run(sn, func(t *testing.T) {
			sched, err := fault.LookupSchedule(sn)
			if err != nil {
				t.Fatal(err)
			}
			run := func() (ChaosCell, []byte) {
				rec := telemetry.NewCollector(telemetry.Config{TraceCap: 1 << 15})
				cell := runChaosCell(backend.Sim, sched, sim, want, rec)
				var buf bytes.Buffer
				if err := rec.WriteChromeTrace(&buf); err != nil {
					t.Fatalf("trace export: %v", err)
				}
				return cell, buf.Bytes()
			}
			c1, t1 := run()
			c2, t2 := run()
			if !c1.Ok() || !c2.Ok() {
				t.Fatalf("sim cells failed: %v / %v", c1.Failures, c2.Failures)
			}
			if c1.String() != c2.String() {
				t.Errorf("sim counters diverge across replays:\n%s\n%s", c1, c2)
			}
			if !bytes.Equal(t1, t2) {
				t.Error("sim telemetry streams diverge across identical replays")
			}
			if len(t1) < 1024 {
				t.Errorf("suspiciously small trace (%d bytes); recorder not wired through?", len(t1))
			}
			if nc := runChaosCell(backend.Native, sched, nat, want, nil); !nc.Ok() {
				t.Errorf("native cell failed: %v", nc.Failures)
			}
		})
	}
}

// TestChaosPermanentSqueezeDegradesRobustTLE: a permanent capacity
// squeeze (every transaction overflows, forever) must push the breaker
// scheme into degraded mode — trips and skips observed — while the
// final contents stay exactly right. The named "squeeze" schedule's
// transient windows are deliberately too short to trip the default
// 64-attempt breaker window; permanence is what degradation is for.
func TestChaosPermanentSqueezeDegradesRobustTLE(t *testing.T) {
	sched := fault.Schedule{
		Name:    "squeeze-forever",
		Summary: "test-local: capacity divided to nothing for the whole run",
		Profile: fault.Profile{
			SqueezeProb:   1,
			SqueezeFactor: 1 << 20, // caps clamp to 1 line: nothing fits
			SqueezeLen:    vtime.Second,
		},
	}
	bc := chaosTrial("tle-robust", workload.BackendSets)
	cell := runChaosCell(backend.Sim, sched, bc, chaosReference(bc), nil)
	if !cell.Ok() {
		t.Fatalf("cell failed: %v", cell.Failures)
	}
	if cell.Fault.SqueezedTx == 0 {
		t.Fatal("permanent squeeze squeezed no transactions")
	}
	s := cell.Sync[0].TLE
	if s.BreakerTrips == 0 || s.BreakerSkips == 0 {
		t.Errorf("breaker never degraded under a permanent squeeze: trips=%d skips=%d", s.BreakerTrips, s.BreakerSkips)
	}
	if s.Ops == 0 || s.Fallbacks == 0 {
		t.Errorf("degraded scheme made no progress: ops=%d fallbacks=%d", s.Ops, s.Fallbacks)
	}
}

// TestChaosCellPanicFailsOnlyItsCell: a trial that panics — a workload
// whose Check finds a broken structure, or one that cannot be built —
// is that cell's failure, not a crash of the matrix.
func TestChaosCellPanicFailsOnlyItsCell(t *testing.T) {
	sched, err := fault.LookupSchedule("spurious")
	if err != nil {
		t.Fatal(err)
	}
	bc := chaosTrial("tle", workload.BackendSets)
	bc.KeyRange = 1 // fewer keys than threads: the workload refuses to build
	cell := runChaosCell(backend.Sim, sched, bc, 0, nil)
	if cell.Ok() || !strings.Contains(strings.Join(cell.Failures, ";"), "panic") {
		t.Errorf("panicking trial reported %v, want a panic failure", cell.Failures)
	}
}

// TestChaosRejectsUnknownNames: lookup failures surface as errors, not
// as silently skipped cells.
func TestChaosRejectsUnknownNames(t *testing.T) {
	if _, err := RunChaos(ChaosConfig{Threads: 1, Ops: 1, Schedules: []string{"nonesuch"}}); err == nil {
		t.Error("unknown schedule accepted")
	}
}
