// Package natle is a Go reproduction of "Investigating the Performance
// of Hardware Transactions on a Multi-Socket Machine" (Brown, Kogan,
// Lev, Luchangco — SPAA 2016).
//
// Go exposes neither HTM intrinsics nor thread pinning, so the package
// ships the machine itself: a deterministic discrete-event simulator of
// a two-socket 72-thread Haswell-class system (and a small 8-thread
// one), with a MESI-style cache/coherence model and a best-effort
// hardware transactional memory faithful to Intel TSX/RTM behaviour.
// On top of that substrate it provides:
//
//   - TLE: transactional lock elision with the paper's retry-policy
//     matrix (attempt counts, hint-bit handling, anti-lemming);
//   - NATLE: the paper's contribution — per-lock adaptive socket
//     throttling driven by periodic profiling (Figures 8-11);
//   - the microbenchmark suite (AVL tree, unbalanced internal and
//     leaf-oriented BSTs, skip-list) and workload driver;
//   - the application workloads (a scaled STAMP suite, the ccTSA
//     assembler, paraheap-k) and a delegation baseline;
//   - a harness regenerating every figure and table in the paper's
//     evaluation (see cmd/figures and EXPERIMENTS.md).
//
// # Quick start
//
//	sim := natle.NewSimulation(natle.LargeMachine(), natle.FillSocketFirst(), 72, 1)
//	sim.Main(func(c *natle.Thread) {
//	    lock := sim.NewNATLELock(c, natle.DefaultNATLEConfig())
//	    set := sim.NewAVL(c)
//	    for i := 0; i < 72; i++ {
//	        sim.Go(c, func(w *natle.Thread) {
//	            lock.Critical(w, func() { set.Insert(w, int64(w.Intn(2048))) })
//	        })
//	    }
//	    c.WaitOthers(natle.Microsecond)
//	})
//
// Deterministic: identical configurations and seeds produce identical
// results, which the test suite exploits heavily.
package natle

import (
	"natle/internal/backend"
	"natle/internal/cctsa"
	"natle/internal/cohort"
	"natle/internal/fault"
	"natle/internal/harness"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/natle"
	"natle/internal/paraheap"
	"natle/internal/scheme"
	"natle/internal/sets"
	"natle/internal/sim"
	"natle/internal/spinlock"
	"natle/internal/stamp"
	"natle/internal/telemetry"
	"natle/internal/tle"
	"natle/internal/vtime"
	"natle/internal/workload"
)

// Re-exported core types. Aliases let external code use the internal
// implementations through this package's namespace.
type (
	// MachineProfile describes a simulated machine (topology, latency
	// table, HTM capacities).
	MachineProfile = machine.Profile
	// PinPolicy places software threads on cores.
	PinPolicy = machine.PinPolicy
	// Thread is a simulated thread's execution context.
	Thread = sim.Ctx
	// Engine is the discrete-event simulator core.
	Engine = sim.Engine
	// HTM is the transactional-memory runtime and shared memory.
	HTM = htm.System
	// TLEPolicy selects a TLE retry policy.
	TLEPolicy = tle.Policy
	// TLELock is an elidable lock.
	TLELock = tle.Lock
	// NATLEConfig tunes the NATLE profiling cycle.
	NATLEConfig = natle.Config
	// NATLELock is a NATLE adaptive lock.
	NATLELock = natle.Lock
	// SpinLock is the test-and-test-and-set fallback lock.
	SpinLock = spinlock.Lock
	// Set is the abstract set implemented by the benchmark structures.
	Set = sets.Set
	// Duration is a virtual-time span (picoseconds).
	Duration = vtime.Duration
	// Time is an absolute virtual timestamp.
	Time = vtime.Time
	// WorkloadConfig configures a microbenchmark trial.
	WorkloadConfig = workload.Config
	// WorkloadResult reports a microbenchmark trial.
	WorkloadResult = workload.Result
	// TwoTreesConfig configures the paper's two-tree experiment (Fig 16).
	TwoTreesConfig = workload.TwoTreesConfig
	// TwoTreesResult reports the two-tree experiment.
	TwoTreesResult = workload.TwoTreesResult
	// ModeSample is one NATLE profiling decision.
	ModeSample = natle.ModeSample
	// LockKind selects a synchronization scheme by name.
	LockKind = workload.LockKind
	// SetKind selects a set implementation by name.
	SetKind = sets.Kind
	// Figure is a reproduced chart/table from the paper.
	Figure = harness.Figure
	// Scale selects figure sweep density.
	Scale = harness.Scale
	// STAMPResult reports one STAMP run.
	STAMPResult = stamp.Result
	// CCTSAConfig configures the ccTSA assembler workload.
	CCTSAConfig = cctsa.Config
	// CCTSAResult reports one ccTSA run.
	CCTSAResult = cctsa.Result
	// ParaheapConfig configures the paraheap-k workload.
	ParaheapConfig = paraheap.Config
	// ParaheapResult reports one paraheap-k run.
	ParaheapResult = paraheap.Result
	// CohortLock is the NUMA-aware cohort-lock baseline (extension).
	CohortLock = cohort.Lock
	// TelemetryRecorder receives transaction lifecycle, fallback,
	// throttle-wait, and cache events (see internal/telemetry).
	TelemetryRecorder = telemetry.Recorder
	// TelemetryCollector aggregates telemetry into counters, latency
	// histograms, per-lock × per-socket attribution, and an optional
	// bounded event trace.
	TelemetryCollector = telemetry.Collector
	// TelemetryConfig sizes a TelemetryCollector.
	TelemetryConfig = telemetry.Config
	// TelemetrySummary is a collector's exportable roll-up.
	TelemetrySummary = telemetry.Summary
	// Scheme describes one registered synchronization scheme (see
	// internal/scheme); its New method constructs instances.
	Scheme = scheme.Descriptor
	// SchemeOptions overrides a scheme's baked-in configuration.
	SchemeOptions = scheme.Options
	// SchemeStats is the uniform per-scheme counter snapshot (TLE
	// counters, NATLE timeline, scheme-specific extras).
	SchemeStats = scheme.Stats
	// SchemeInstance is a constructed scheme: a critical-section
	// executor (TLE, NATLE, plain, none, ...) that also reports
	// SchemeStats.
	SchemeInstance = scheme.Instance
	// FaultProfile configures the deterministic fault injector
	// (internal/fault): spurious aborts, lying hint bits, capacity
	// squeezes, delayed invalidations, critical-section stalls. Assign
	// to WorkloadConfig.Fault.
	FaultProfile = fault.Profile
	// FaultSchedule is a named FaultProfile reproducing one of the
	// paper's pathologies.
	FaultSchedule = fault.Schedule
	// FaultStats counts what an injector actually did during a run.
	FaultStats = fault.Stats
	// ChaosConfig configures the chaos matrix (backends × fault
	// schedules × robust schemes × backend workloads).
	ChaosConfig = harness.ChaosConfig
	// ChaosCell is one (backend, schedule, scheme, workload) outcome of
	// the chaos matrix.
	ChaosCell = harness.ChaosCell
	// TLEBreakerConfig tunes the per-lock circuit breaker
	// (TLEPolicy.Breaker) that degrades TLE to the plain mutex under
	// pathological abort rates.
	TLEBreakerConfig = tle.BreakerConfig
)

// STAMPConfig configures one STAMP benchmark run by name.
type STAMPConfig struct {
	Name string
	stamp.Config
}

// NewCohortLock allocates a cohort lock (extension baseline; see
// internal/cohort).
func (s *Simulation) NewCohortLock(c *Thread, maxPass int) *CohortLock {
	return cohort.New(s.HTM, c, maxPass)
}

// Common virtual durations.
const (
	Nanosecond  = vtime.Nanosecond
	Microsecond = vtime.Microsecond
	Millisecond = vtime.Millisecond
)

// Lock kinds accepted by WorkloadConfig.Lock.
const (
	LockPlain  = workload.LockPlain
	LockTLE    = workload.LockTLE
	LockNATLE  = workload.LockNATLE
	LockCohort = workload.LockCohort
	LockNoSync = workload.LockNoSync
)

// Set kinds accepted by WorkloadConfig.SetKind.
const (
	SetAVL      = sets.KindAVL
	SetLeafBST  = sets.KindLeafBST
	SetBST      = sets.KindBST
	SetSkipList = sets.KindSkipList
)

// LargeMachine returns the two-socket 72-thread profile (Oracle X5-2).
func LargeMachine() *MachineProfile { return machine.LargeX52() }

// SmallMachine returns the single-socket 8-thread profile (i7-4770).
func SmallMachine() *MachineProfile { return machine.SmallI7() }

// FillSocketFirst returns the paper's default pinning policy.
func FillSocketFirst() PinPolicy { return machine.FillSocketFirst{} }

// AlternatingSockets returns the even/odd-socket pinning policy.
func AlternatingSockets() PinPolicy { return machine.Alternating{} }

// Unpinned leaves placement to the simulated OS scheduler.
func Unpinned() PinPolicy { return machine.Unpinned{} }

// TLE20 returns the paper's default retry policy (20 attempts, ignore
// the hint bit, anti-lemming on).
func TLE20() TLEPolicy { return tle.TLE20() }

// DefaultNATLEConfig returns the scaled NATLE cycle configuration
// (3 ms cycle — the paper's 300 ms structure at 1/100 scale). Trials
// should run for at least two or three cycles.
func DefaultNATLEConfig() NATLEConfig { return natle.DefaultConfig() }

// QuickNATLEConfig returns a shorter-cycle configuration (1.2 ms
// cycle) for demos and tests: the profiling windows stay long enough
// (100 us per mode) for clean measurements, but the quanta are
// shortened so a few-millisecond trial spans several cycles.
func QuickNATLEConfig() NATLEConfig {
	cfg := natle.DefaultConfig()
	cfg.ProfilingLen = 300 * Microsecond
	cfg.QuantumLen = 100 * Microsecond
	cfg.WarmupThreshold = 64
	return cfg
}

// Simulation bundles one simulated machine instance: the event engine
// and its memory/HTM runtime.
type Simulation struct {
	Engine *Engine
	HTM    *HTM
}

// NewSimulation creates a machine. planned is the worker-thread count
// the pinning policy should lay out for; seed fixes all randomness.
func NewSimulation(p *MachineProfile, pin PinPolicy, planned int, seed int64) *Simulation {
	e := sim.New(p, pin, planned, seed)
	return &Simulation{Engine: e, HTM: htm.NewSystem(e, 1<<20)}
}

// Main spawns fn as the driver thread and runs the simulation to
// completion. It must be called exactly once.
func (s *Simulation) Main(fn func(c *Thread)) {
	s.Engine.Spawn(nil, fn)
	s.Engine.Run()
}

// Go spawns a worker thread from within the simulation (normally from
// the driver). Placement follows the pinning policy.
func (s *Simulation) Go(parent *Thread, fn func(c *Thread)) *Thread {
	return s.Engine.Spawn(parent, fn)
}

// NewSpinLock allocates a plain spin lock homed on socket 0.
func (s *Simulation) NewSpinLock(c *Thread) *SpinLock {
	return spinlock.New(s.HTM, c, 0)
}

// NewTLELock allocates a TLE lock with the given policy.
func (s *Simulation) NewTLELock(c *Thread, pol TLEPolicy) *TLELock {
	return tle.New(s.HTM, c, 0, pol)
}

// NewNATLELock allocates a NATLE lock over a TLE-20 inner lock.
func (s *Simulation) NewNATLELock(c *Thread, cfg NATLEConfig) *NATLELock {
	return natle.New(s.HTM, c, tle.New(s.HTM, c, 0, tle.TLE20()), cfg)
}

// SchemeNames lists every simulated synchronization scheme, sorted.
// All of them are accepted by WorkloadConfig.Lock and the application
// workloads' Lock fields.
func SchemeNames() []string { return scheme.NamesFor(backend.Sim) }

// LookupScheme finds a registered scheme descriptor by name.
func LookupScheme(name string) (*Scheme, error) { return scheme.LookupFor(backend.Sim, name) }

// NewScheme constructs an instance of the named scheme (with opt
// overriding its defaults), homed on socket 0. It is the registry-
// driven generalization of NewTLELock/NewNATLELock/NewSpinLock: any
// scheme name from SchemeNames works here without a dedicated
// constructor.
func (s *Simulation) NewScheme(c *Thread, name string, opt SchemeOptions) (SchemeInstance, error) {
	d, err := scheme.LookupFor(backend.Sim, name)
	if err != nil {
		return nil, err
	}
	return d.Configure(opt).New(s.HTM, c, 0), nil
}

// NewAVL allocates an AVL tree in simulated memory.
func (s *Simulation) NewAVL(c *Thread) *sets.AVL { return sets.NewAVL(s.HTM, c) }

// NewLeafBST allocates a leaf-oriented BST in simulated memory.
func (s *Simulation) NewLeafBST(c *Thread) *sets.LeafBST { return sets.NewLeafBST(s.HTM, c) }

// NewBST allocates an internal BST in simulated memory.
func (s *Simulation) NewBST(c *Thread) *sets.BST { return sets.NewBST(s.HTM, c) }

// NewSkipList allocates a skip-list in simulated memory.
func (s *Simulation) NewSkipList(c *Thread) *sets.SkipList { return sets.NewSkipList(s.HTM, c) }

// PrefillSet inserts half the keys of [0, keyRange) (the benchmark
// prefill step).
func PrefillSet(set Set, c *Thread, keyRange int64) { sets.Prefill(set, c, keyRange) }

// RunWorkload executes one microbenchmark trial (see WorkloadConfig).
func RunWorkload(cfg WorkloadConfig) *WorkloadResult { return workload.Run(cfg) }

// NewTelemetryCollector allocates a telemetry collector; assign it to
// WorkloadConfig.Recorder (or HTM.SetRecorder) to record a trial.
func NewTelemetryCollector(cfg TelemetryConfig) *TelemetryCollector {
	return telemetry.NewCollector(cfg)
}

// RunTwoTrees executes the Fig 16 two-tree experiment.
func RunTwoTrees(cfg TwoTreesConfig) *TwoTreesResult { return workload.RunTwoTrees(cfg) }

// STAMPNames lists the available STAMP benchmarks (Fig 17).
func STAMPNames() []string { return stamp.Names() }

// RunSTAMP executes one STAMP benchmark and returns its result.
func RunSTAMP(cfg STAMPConfig) (*STAMPResult, error) {
	b, err := stamp.New(cfg.Name)
	if err != nil {
		return nil, err
	}
	return stamp.Run(b, cfg.Config), nil
}

// RunCCTSA executes the ccTSA assembly workload (Fig 18).
func RunCCTSA(cfg CCTSAConfig) *CCTSAResult { return cctsa.Run(cfg) }

// DefaultCCTSAConfig returns the synthetic E. coli stand-in sizing.
func DefaultCCTSAConfig() CCTSAConfig { return cctsa.DefaultConfig() }

// RunParaheap executes the paraheap-k clustering workload (Fig 19).
func RunParaheap(cfg ParaheapConfig) *ParaheapResult { return paraheap.Run(cfg) }

// DefaultParaheapConfig returns the synthetic sky sizing.
func DefaultParaheapConfig() ParaheapConfig { return paraheap.DefaultConfig() }

// QuickScale returns the fast figure-sweep scale.
func QuickScale() Scale { return harness.QuickScale() }

// FullScale returns the dense figure-sweep scale used for
// EXPERIMENTS.md.
func FullScale() Scale { return harness.FullScale() }

// FaultScheduleNames lists the named fault schedules, mild to severe.
func FaultScheduleNames() []string { return fault.ScheduleNames() }

// LookupFaultSchedule finds a named fault schedule (see
// FaultScheduleNames); the error lists the valid names.
func LookupFaultSchedule(name string) (FaultSchedule, error) {
	return fault.LookupSchedule(name)
}

// DefaultBreakerConfig returns the circuit-breaker tuning used by the
// tle-robust scheme.
func DefaultBreakerConfig() TLEBreakerConfig { return tle.DefaultBreakerConfig() }

// RunChaos runs the chaos matrix: every requested fault schedule
// against every robust scheme of both backends over every backend
// workload, checking the conservation laws and the fault-free
// reference checksum per cell.
func RunChaos(cfg ChaosConfig) ([]ChaosCell, error) { return harness.RunChaos(cfg) }

// ChaosReport renders chaos cells one line each and reports whether
// every cell held its invariants.
func ChaosReport(cells []ChaosCell) (string, bool) { return harness.ChaosReport(cells) }
