// Package backend makes *which world a scheme executes in* a
// first-class axis of the substrate. A backend bundles the capabilities
// every synchronization scheme and workload driver consumes — a time
// source, thread spawn/join and word-addressed shared memory — behind
// interfaces small enough that the same workload code runs unchanged on
// either side (critical sections on a backend are
// scheme.BackendInstance):
//
//   - the sim backend (internal/workload.SimWorld) executes on the
//     deterministic discrete-event simulator: virtual time, simulated
//     threads under a pinning policy, simulated cache-coherent memory.
//     Simulated results are a pure function of (profile, seed) — they
//     predict.
//   - the native backend (internal/native.World) executes on real
//     goroutines over real memory ([]atomic.Uint64 words) with
//     wall-clock time. Native results are host measurements — they
//     prove.
//
// This package holds only the vocabulary (no execution machinery), so
// internal/scheme can declare per-backend factories without importing
// either world, and the worlds can be built in the packages that own
// their machinery.
package backend

// Kind names one execution backend.
type Kind string

const (
	// Sim is the deterministic discrete-event simulator backend
	// (virtual time, simulated threads and memory).
	Sim Kind = "sim"
	// Native is the real-execution backend (wall-clock time, real
	// goroutines, atomic words in process memory).
	Native Kind = "native"
)

// Kinds returns every backend, in fixed order.
func Kinds() []Kind { return []Kind{Sim, Native} }

// Valid reports whether k names a known backend.
func Valid(k Kind) bool {
	switch k {
	case Sim, Native:
		return true
	default:
		return false
	}
}

// Ctx is the per-thread execution context a backend hands to setup
// and worker functions. One Ctx belongs to exactly one thread and is
// never shared, so implementations keep per-thread state (RNG,
// speculative transaction state) in it without synchronization.
type Ctx interface {
	// Thread is the worker's index within the trial, or -1 for the
	// setup context that runs before workers start.
	Thread() int
	// Socket is the thread's placement domain: the simulated socket
	// under the trial's pinning policy on sim. On native it is only a
	// group label computed from the thread index: the package that
	// /sys/devices/system/cpu/cpu*/topology reports for CPU
	// thread%ncpu, or a fill-first thread-index stripe when sysfs is
	// absent or an explicit group count was configured (see
	// internal/native's ReadTopology). Native workers are unpinned
	// goroutines, so the label does not say where the thread runs.
	Socket() int
	// Rand64 draws from the thread's deterministic seeded RNG.
	Rand64() uint64
	// Intn returns a draw in [0, n) from the same RNG.
	Intn(n int) int
	// Now returns the backend clock in nanoseconds: virtual time on
	// sim, monotonic wall-clock time on native.
	Now() int64
	// Work burns n iterations of external (non-critical-section)
	// work.
	Work(n int)
	// Alloc reserves nWords zeroed words of the world's shared memory
	// and returns the address of the first. Call only from the setup
	// context (single-threaded, before workers run).
	Alloc(nWords int) int
	// Load reads shared word a. Inside a Critical body the access is
	// transactional on backends with optimistic schemes (tracked and
	// validated). Once the attempt has aborted, it returns 0 until the
	// body returns, and the scheme then re-runs the body.
	Load(a int) uint64
	// Store writes shared word a, transactionally inside a Critical
	// body; an aborted attempt's stores are dropped.
	Store(a int, v uint64)
}

// World is one constructed execution backend: a shared memory plus
// the ability to run one trial of worker threads over it.
type World interface {
	// Kind names the backend.
	Kind() Kind
	// Run executes one trial: setup runs first, alone (allocate
	// memory, build scheme instances), then threads workers run body
	// concurrently; Run returns after every worker finished.
	Run(threads int, setup func(Ctx), body func(Ctx))
	// Peek reads shared word a after Run returned (quiesced memory
	// inspection for conformance checks; not synchronized against
	// running workers).
	Peek(a int) uint64
}
