package harness

import (
	"fmt"
	"strings"

	"natle/internal/backend"
	"natle/internal/expt"
	"natle/internal/fault"
	"natle/internal/machine"
	"natle/internal/native"
	"natle/internal/scheme"
	"natle/internal/telemetry"
	"natle/internal/workload"
)

// The chaos harness: every named fault schedule (internal/fault) runs
// against every robust mutual-exclusion scheme of both execution
// backends, over every backend-agnostic workload, and each cell is
// checked against the laws no injected adversity may break:
//
//   - operation conservation: every one of the trial's threads x ops
//     critical sections is counted once, and per lock each either
//     committed optimistically or took the fallback (ops = commits +
//     fallbacks);
//   - transaction conservation on the simulator: starts = commits +
//     aborts;
//   - correctness: the workload's checksum (structural invariants
//     included) equals one fault-free reference, computed once per
//     workload on the simulator under lock. The checksum depends on
//     neither backend nor scheme — the cross-backend conformance suite
//     proves it — so one reference serves every cell.
//
// Faults may slow a scheme down arbitrarily; they must never change
// what it computes. Sim cells are deterministic and run on a host pool;
// native cells measure real goroutines and run one at a time.

// ChaosConfig configures a chaos run. The zero value selects the
// defaults documented on each field.
type ChaosConfig struct {
	Threads int   // workers per cell (default 8)
	Ops     int   // operations per worker (default 256)
	Seed    int64 // operation-schedule, world and injector seed (default 1)

	// Parallel bounds the host worker pool running the sim cells (<= 0
	// selects GOMAXPROCS). Results are assembled in matrix order, so
	// the sim lines of the report are byte-identical at any value.
	Parallel int

	// Schedules names the fault schedules to run (default: all).
	Schedules []string
}

func (cfg ChaosConfig) withDefaults() ChaosConfig {
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 256
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Schedules == nil {
		cfg.Schedules = fault.ScheduleNames()
	}
	return cfg
}

// ChaosCell is the outcome of one (backend, schedule, scheme,
// workload) cell.
type ChaosCell struct {
	Backend  backend.Kind
	Schedule string
	Scheme   string
	Workload string

	Failures []string       // law violations (empty when the cell held)
	Sync     []scheme.Stats // each of the workload's locks' counters
	Fault    fault.Stats    // what the world's injector actually did
}

// Ok reports whether the cell held every law.
func (c ChaosCell) Ok() bool { return len(c.Failures) == 0 }

func (c *ChaosCell) fail(format string, args ...any) {
	c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
}

// String renders one result line.
func (c ChaosCell) String() string {
	var commits, aborts, fallbacks uint64
	for _, s := range c.Sync {
		commits += s.TLE.Commits
		aborts += s.TLE.TotalAborts()
		fallbacks += s.TLE.Fallbacks
	}
	status := "ok"
	if !c.Ok() {
		status = "FAIL: " + strings.Join(c.Failures, "; ")
	}
	return fmt.Sprintf("%-6s %-10s %-12s %-8s commits=%-5d aborts=%-5d fallbacks=%-5d [%s] %s",
		c.Backend, c.Schedule, c.Scheme, c.Workload, commits, aborts, fallbacks, c.Fault, status)
}

// chaosWorld builds a fresh world of kind k for bc: on the simulator
// the two-socket machine with threads alternating sockets (the
// adversarial placement: every schedule gets cross-socket traffic to
// amplify), natively a world sized for the trial.
func chaosWorld(k backend.Kind, bc workload.BackendConfig) backend.World {
	if k == backend.Sim {
		return workload.NewSimWorld(machine.LargeX52(), machine.Alternating{}, bc.Threads, bc.Seed, 0)
	}
	return native.NewWorld(native.Config{Seed: bc.Seed, Words: bc.MemWords()})
}

// chaosReference is the fault-free checksum every cell of bc's workload
// must reproduce: bc's trial on the simulator under lock.
func chaosReference(bc workload.BackendConfig) uint64 {
	bc.Lock, bc.Fault = "lock", nil
	return workload.RunBackend(chaosWorld(backend.Sim, bc), bc).Check
}

// runChaosCell runs bc under sched on a fresh world of kind k and
// checks the cell's laws against want, the fault-free checksum of its
// workload. rec, when non-nil, receives a sim cell's telemetry.
func runChaosCell(k backend.Kind, sched fault.Schedule, bc workload.BackendConfig,
	want uint64, rec telemetry.Recorder) (cell ChaosCell) {
	cell = ChaosCell{Backend: k, Schedule: sched.Name, Scheme: bc.Lock, Workload: bc.Workload}
	defer func() {
		// A workload's Check panics on a broken structure: that is this
		// cell's failure, not the matrix's.
		if r := recover(); r != nil {
			cell.fail("panic: %v", r)
		}
	}()
	w := chaosWorld(k, bc)
	sw, _ := w.(*workload.SimWorld)
	if sw != nil && rec != nil {
		sw.Sys.SetRecorder(rec)
	}
	bc.Fault = &sched.Profile
	r := workload.RunBackend(w, bc)
	cell.Sync, cell.Fault = r.Sync, r.Fault

	var elided uint64
	for i, s := range r.Sync {
		if s.TLE.Ops != s.TLE.Commits+s.TLE.Fallbacks {
			cell.fail("CS conservation broken on lock %d: %d ops != %d commits + %d fallbacks",
				i, s.TLE.Ops, s.TLE.Commits, s.TLE.Fallbacks)
		}
		elided += s.TLE.Ops
	}
	// Lock baselines keep no section ledger; every eliding scheme's
	// locks together see each operation exactly once.
	if ops := uint64(bc.Threads) * uint64(bc.Ops); elided != 0 && elided != ops {
		cell.fail("op conservation broken: locks counted %d sections, want %d", elided, ops)
	}
	if sw != nil {
		if hs := sw.Sys.Stats; hs.Starts != hs.Commits+hs.TotalAborts() {
			cell.fail("HTM conservation broken: %d starts != %d commits + %d aborts",
				hs.Starts, hs.Commits, hs.TotalAborts())
		}
	}
	if r.Check != want {
		cell.fail("checksum diverges from fault-free run: got %#x, want %#x", r.Check, want)
	}
	return cell
}

// RunChaos runs the full matrix and returns one cell per combination:
// backend outermost (sim, then native), then schedule (the order of
// cfg.Schedules), scheme and workload. Schedule names are resolved and
// the fault-free references computed before any cell runs.
func RunChaos(cfg ChaosConfig) ([]ChaosCell, error) {
	cfg = cfg.withDefaults()
	scheds := make([]fault.Schedule, len(cfg.Schedules))
	for i, name := range cfg.Schedules {
		s, err := fault.LookupSchedule(name)
		if err != nil {
			return nil, err
		}
		scheds[i] = s
	}
	base := workload.BackendConfig{Threads: cfg.Threads, Ops: cfg.Ops, Seed: cfg.Seed}
	want := map[string]uint64{}
	for _, wl := range workload.BackendWorkloads() {
		bc := base
		bc.Workload = wl
		want[wl] = chaosReference(bc)
	}

	type spec struct {
		k     backend.Kind
		sched fault.Schedule
		bc    workload.BackendConfig
	}
	var specs []spec
	var nSim int
	for _, k := range []backend.Kind{backend.Sim, backend.Native} {
		for _, s := range scheds {
			for _, d := range scheme.AllFor(k) {
				if !d.Mutex || !d.Robust {
					continue
				}
				for _, wl := range workload.BackendWorkloads() {
					bc := base
					bc.Lock, bc.Workload = d.Name, wl
					specs = append(specs, spec{k, s, bc})
				}
			}
		}
		if k == backend.Sim {
			nSim = len(specs)
		}
	}
	run := func(i int) ChaosCell {
		s := specs[i]
		return runChaosCell(s.k, s.sched, s.bc, want[s.bc.Workload], nil)
	}
	cells := expt.Map(cfg.Parallel, nSim, run)
	for i := nSim; i < len(specs); i++ {
		cells = append(cells, run(i))
	}
	return cells, nil
}

// ChaosReport renders the matrix one line per cell and reports whether
// every cell held its laws.
func ChaosReport(cells []ChaosCell) (string, bool) {
	var b strings.Builder
	ok := true
	for _, c := range cells {
		b.WriteString(c.String())
		b.WriteByte('\n')
		ok = ok && c.Ok()
	}
	return b.String(), ok
}
