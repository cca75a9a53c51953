package native

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"natle/internal/backend"
	"natle/internal/fault"
)

// Config sizes a native world.
type Config struct {
	// Words is the shared-memory capacity in 64-bit words (default
	// 1<<20). Alloc panics on overflow: the word array must never
	// reallocate while workers hold references into it.
	Words int
	// Seed feeds the per-thread deterministic RNGs, so the *operation
	// schedule* of a native trial is reproducible even though its
	// timing is not.
	Seed int64
	// Sockets, when positive, forces the thread-group count and
	// fill-first striping: thread i of n is in group i*Sockets/n,
	// mirroring the simulator's fill-socket-first pinning. When zero,
	// the world discovers the host's real topology from
	// /sys/devices/system/cpu/cpu*/topology (package + core ids) and
	// maps thread t to the package of CPU t%ncpu; if sysfs is absent
	// (non-Linux, stripped containers) it falls back to fill-first
	// striping over 2 groups.
	Sockets int
}

// chunkWords is the size of one piece of a world's memory: 1 MiB.
const (
	chunkShift = 17
	chunkWords = 1 << chunkShift
)

// World is the native execution backend: real goroutines over a real
// atomic word array on wall-clock time. It implements backend.World.
//
// The array is a list of chunks, not one allocation. A caller that
// builds a world per trial frees tens of megabytes and asks for them
// again, and the Go heap places a large object at the lowest address
// where the whole of it fits: one allocation fits the range the last
// world left only if nothing took a page off its start meanwhile (a
// goroutine stack span or a P's page cache does, now and then), and
// otherwise a second range is mapped beside the first and the process's
// peak memory doubles in one run out of three. Chunks fill whatever is
// free, so a page taken displaces one of them.
type World struct {
	mem      [][]atomic.Uint64 // chunkWords each, the last one what is left
	words    int
	next     int
	seed     int64
	sockets  int
	cpuGroup []int  // per-CPU dense package ordinal (sysfs mode only)
	groupSrc string // "sysfs" or "stripe"
	threads  int    // workers of the current Run (socket striping)
	epoch    time.Time
	inj      *Fault // nil unless ArmFaults armed one
}

// NewWorld builds a native world.
func NewWorld(cfg Config) *World {
	if cfg.Words <= 0 {
		cfg.Words = 1 << 20
	}
	w := &World{
		mem:   make([][]atomic.Uint64, 0, (cfg.Words+chunkWords-1)>>chunkShift),
		words: cfg.Words,
		seed:  cfg.Seed,
		epoch: time.Now(),
	}
	for left := cfg.Words; left > 0; left -= chunkWords {
		w.mem = append(w.mem, make([]atomic.Uint64, min(left, chunkWords)))
	}
	switch {
	case cfg.Sockets > 0:
		w.sockets, w.groupSrc = cfg.Sockets, "stripe"
	default:
		if topo, err := ReadTopology(sysCPURoot); err == nil && topo.Packages > 0 {
			w.sockets, w.cpuGroup, w.groupSrc = topo.Packages, topo.CPUPackage, "sysfs"
		} else {
			w.sockets, w.groupSrc = 2, "stripe"
		}
	}
	return w
}

// ArmFaults implements fault.Target: the native fault adapter (see
// Fault), so the chaos schedules stress real goroutines exactly as they
// stress the simulator. Call before Run.
func (w *World) ArmFaults(p fault.Profile) {
	if p.Enabled() {
		w.inj = newFault(p)
	}
}

// FaultStats implements fault.Target.
func (w *World) FaultStats() fault.Stats { return w.inj.Stats() }

// Kind implements backend.World.
func (w *World) Kind() backend.Kind { return backend.Native }

// Peek implements backend.World.
func (w *World) Peek(a int) uint64 { return w.word(a).Load() }

// word returns shared word a.
func (w *World) word(a int) *atomic.Uint64 { return &w.mem[a>>chunkShift][a&(chunkWords-1)] }

// Sockets returns the world's thread-group count (the native stand-in
// for socket placement).
func (w *World) Sockets() int { return w.sockets }

// Groups returns the thread-group count, alongside GroupSource, for
// BackendResult's optional topology probe.
func (w *World) Groups() int { return w.sockets }

// GroupSource reports how the thread groups were obtained: "sysfs" for
// real /sys/devices/system/cpu topology, "stripe" for fill-first
// striping (explicit Config.Sockets, or the fallback when sysfs is
// absent).
func (w *World) GroupSource() string { return w.groupSrc }

// now returns monotonic wall-clock nanoseconds since the world was
// built (time.Since uses the monotonic clock reading of the epoch).
func (w *World) now() int64 { return int64(time.Since(w.epoch)) }

// alloc reserves nWords zeroed words.
func (w *World) alloc(nWords int) int {
	if w.next+nWords > w.words {
		panic(fmt.Sprintf("native: out of memory (%d words allocated, %d requested, %d capacity)",
			w.next, nWords, w.words))
	}
	a := w.next
	w.next += nWords
	return a
}

// Run implements backend.World: setup runs alone on a setup context,
// then threads goroutines run body concurrently from a common start
// signal; Run returns after all of them finished.
func (w *World) Run(threads int, setup func(backend.Ctx), body func(backend.Ctx)) {
	w.threads = threads
	setup(w.ctx(-1))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		c := w.ctx(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			body(c)
		}()
	}
	close(start)
	wg.Wait()
}

// ctx builds the per-thread context for worker thread (or the setup
// context for thread -1).
func (w *World) ctx(thread int) *Thread {
	// splitmix64-style seeding: distinct, well-mixed streams per
	// (world seed, thread).
	s := uint64(w.seed)*0x9e3779b97f4a7c15 + uint64(thread+1)*0xbf58476d1ce4e5b9
	return &Thread{w: w, thread: thread, group: w.groupOf(thread), rng: s}
}

// groupOf maps a worker of the current Run to its thread group: the
// package of CPU thread%ncpu when the world discovered sysfs topology,
// fill-first striping otherwise; the setup context is in group 0. The
// group is a label computed from the thread index alone: workers are
// unpinned goroutines, so nothing places thread i on CPU thread%ncpu.
func (w *World) groupOf(thread int) int {
	if thread < 0 || w.sockets <= 1 {
		return 0
	}
	if g := w.cpuGroup; len(g) > 0 {
		return g[thread%len(g)]
	}
	if w.threads <= 0 {
		return 0
	}
	return min(thread*w.sockets/w.threads, w.sockets-1)
}

// Thread is the per-goroutine execution context; it implements
// backend.Ctx and carries the goroutine's speculative transaction
// state, so schemes need no thread-local lookup machinery.
//
// Its owner writes rng, tx and sink on every operation, and a run's
// contexts are allocated back to back, so the struct is padded to two
// whole cache lines: unpadded, neighbouring workers share a line and
// every scheme loses a fifth to a third of its throughput.
type Thread struct {
	w      *World
	thread int
	group  int // fixed for the Run: see World.groupOf
	rng    uint64
	tx     txn
	sink   uint64 // Work/spin accumulator, defeats dead-code elimination

	// The lock this thread last ran a section on and its counter shard
	// there (see TLE.shard): a section finds its counters without
	// reading a line another thread writes.
	lock  *TLE
	shard *shard
	_     [32]byte
}

// txn is one optimistic native-tle attempt in flight on this thread.
// An attempt that fails validation or its upgrade, or draws an injected
// abort, is dead: its remaining loads return 0 and its stores are
// dropped until the body returns (the native mirror of the simulator's
// dead attempt, see package htm), and the attempt then reports the
// abort. Upgraded writers publish directly and never die. Only active
// is cleared when the attempt ends: the other fields mean nothing
// without it, and the next attempt overwrites them all.
type txn struct {
	active   bool
	writer   bool
	dead     bool
	start    uint64
	seq      *atomic.Uint64
	spurious int // injected spurious-abort countdown (0 = unarmed)
	budget   int // injected access budget (0 = unlimited)
}

// Thread implements backend.Ctx.

// Thread returns the worker index (-1 for the setup context).
func (c *Thread) Thread() int { return c.thread }

// Socket returns the thread's group.
func (c *Thread) Socket() int { return c.group }

// Rand64 steps the thread's splitmix64 RNG.
func (c *Thread) Rand64() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a draw in [0, n).
func (c *Thread) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(c.Rand64() % uint64(n))
}

// Now returns monotonic wall-clock nanoseconds since world
// construction.
func (c *Thread) Now() int64 { return c.w.now() }

// Work burns n iterations of external work.
func (c *Thread) Work(n int) {
	for i := 0; i < n; i++ {
		c.sink = c.sink*6364136223846793005 + 1442695040888963407
	}
}

// Alloc reserves nWords zeroed shared words (setup context only; the
// allocator is not synchronized).
func (c *Thread) Alloc(nWords int) int { return c.w.alloc(nWords) }

// Load reads shared word a. Inside an optimistic attempt it validates
// the lock sequence after the read (seqlock discipline); on
// interference the attempt dies and the load, like every later one of
// the attempt, returns 0.
func (c *Thread) Load(a int) uint64 {
	v := c.w.word(a).Load()
	if c.tx.active && !c.tx.writer {
		if c.tx.dead || c.tx.seq.Load() != c.tx.start {
			c.tx.dead = true
			return 0
		}
		if (c.tx.spurious > 0 || c.tx.budget > 0) && c.txAccess() {
			return 0
		}
	}
	return v
}

// Store writes shared word a. The first store of an optimistic
// attempt upgrades it to writer by acquiring the sequence word with a
// CAS; failure to upgrade kills the attempt, and a dead attempt's
// stores are dropped.
func (c *Thread) Store(a int, v uint64) {
	if c.tx.active && !c.tx.writer {
		if c.tx.dead || (c.tx.spurious > 0 || c.tx.budget > 0) && c.txAccess() {
			return
		}
		if !c.tx.seq.CompareAndSwap(c.tx.start, c.tx.start+1) {
			c.tx.dead = true
			return
		}
		c.tx.writer = true
	}
	c.w.word(a).Store(v)
}

// spinWait busy-waits for about ns wall-clock nanoseconds, yielding
// the processor periodically so oversubscribed hosts (more workers
// than cores) keep making progress.
func (c *Thread) spinWait(ns int64) {
	if ns <= 0 {
		return
	}
	deadline := c.w.now() + ns
	for c.w.now() < deadline {
		c.sink++
		if c.sink&255 == 0 {
			runtime.Gosched()
		}
	}
}
