package workload

import (
	"fmt"
	"sort"

	"natle/internal/arena"
	"natle/internal/backend"
	"natle/internal/fault"
	"natle/internal/mem"
	"natle/internal/scheme"
	"natle/internal/sets"
	"natle/internal/tle"
)

// The backend-agnostic workloads. Unlike the virtual-time sweeps above
// (duration-bounded, meaningful only on the simulator), these trials
// are *operation-count*-bounded and express every shared access
// through backend.Ctx, so one driver runs bit-identically on the
// simulator and natively. Their operation schedules are pure hashes of
// (seed, thread, op index) — independent of interleaving — and their
// mutations either commute (counter increments) or touch thread-owned
// key partitions (twotrees updates), so the final shared-memory
// contents are a function of the config alone. That property is what
// the cross-backend conformance suite checks.

// Backend workload names.
const (
	BackendCounter  = "counter"  // all threads increment one shared counter
	BackendTwoTrees = "twotrees" // Fig 16 shape: update-only set + search-only set, a lock each
	BackendSets     = "sets"     // Fig 1 shape: one search structure under one elidable lock
)

// BackendWorkloads lists the backend-agnostic workload names (flag
// help, sweeps).
func BackendWorkloads() []string {
	return []string{BackendCounter, BackendTwoTrees, BackendSets}
}

// IsBackendWorkload reports whether name is a registered
// backend-agnostic workload. Flag validation must use this (and flag
// help BackendWorkloads()) so both stay tied to the one registry.
func IsBackendWorkload(name string) bool {
	for _, n := range BackendWorkloads() {
		if n == name {
			return true
		}
	}
	return false
}

// BackendConfig describes one backend-agnostic trial.
type BackendConfig struct {
	// Lock names a scheme; it must be registered for the world's
	// backend (see scheme.LookupFor).
	Lock string
	// Workload is one of BackendWorkloads() (default counter).
	Workload string
	// Threads is the worker count (default 1).
	Threads int
	// Ops is the per-thread operation count (default 1<<14).
	Ops int
	// Seed feeds the operation-schedule hash.
	Seed int64
	// KeyRange is the twotrees/sets key-space size per structure
	// (default 1024; must be >= the updater/thread count).
	KeyRange int
	// Set selects the structure the sets workload exercises (default
	// avl; see sets.Kinds).
	Set sets.Kind
	// ExternalWork is the exclusive upper bound on the random
	// external-work iterations between operations (0 disables).
	ExternalWork int
	// TLE overrides the scheme's retry policy (zero keeps the
	// descriptor default).
	TLE tle.Policy
	// Fault, if non-nil and enabled, arms these faults on the trial's
	// world for the whole trial, setup included; the result's Fault
	// counts what was injected (see internal/fault).
	Fault *fault.Profile
}

func (cfg *BackendConfig) defaults() {
	if cfg.Workload == "" {
		cfg.Workload = BackendCounter
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 1 << 14
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 1024
	}
	if cfg.Set == "" {
		cfg.Set = sets.KindAVL
	}
}

// MemWords bounds the backend words the configured trial can touch,
// for sizing fixed-size native worlds (the simulator's space grows on
// demand, so sim callers may ignore it). Only the sets bound grows with
// the trial: threads+1 arena lanes of setsLaneWords each, the size the
// trial's own arena is built with.
func (cfg BackendConfig) MemWords() int {
	c := cfg
	c.defaults()
	base := 1 << 16 // locks, counters, slack
	switch c.Workload {
	case BackendTwoTrees:
		base += 2*c.KeyRange + 2*mem.WordsPerLine
	case BackendSets:
		base += (c.Threads+1)*(c.setsLaneWords()+mem.WordsPerLine) + 4*mem.WordsPerLine
	}
	return base
}

// setsLaneWords is the arena lane of a sets trial, the one size both
// MemWords and bkSets.Setup use: room for the prefill's KeyRange/2
// nodes or for the most inserts any one worker's schedule holds,
// whichever is more. The schedule bounds what a lane hands out because
// only an insert allocates, and an allocation an attempt does not
// commit is not kept: a dead native attempt drops its cursor store, an
// upgraded native writer never dies, and a simulated abort discards its
// write buffer. The predicate is bkSets.Worker's: an odd hash is an
// update, and an update with bit 1 clear is an insert. It is counted
// without a branch, which is four times as fast on a schedule a
// quarter inserts.
func (cfg BackendConfig) setsLaneWords() int {
	need := cfg.KeyRange/2 + 1
	for t := range cfg.Threads {
		inserts := 0
		for j := range cfg.Ops {
			x := opHash(cfg.Seed, t, j)
			inserts += int(x &^ (x >> 1) & 1) // bit 0 set, bit 1 clear
		}
		need = max(need, inserts)
	}
	return need * sets.InsertWords(cfg.Set)
}

// BackendResult reports one backend-agnostic trial.
type BackendResult struct {
	Backend  backend.Kind
	Lock     string
	Workload string
	Threads  int

	// Ops is the total completed operations (threads * per-thread ops;
	// op-count-bounded trials always finish their schedule).
	Ops uint64
	// ElapsedNs is first-op-start to last-op-end: virtual nanoseconds
	// on sim, wall-clock nanoseconds natively.
	ElapsedNs int64
	// Sync holds each of the workload's locks' counters (one entry for
	// counter; update then search lock for twotrees).
	Sync []scheme.Stats
	// Check is the workload-defined checksum of the final shared
	// contents; for a fixed config it is backend- and
	// interleaving-independent.
	Check uint64
	// Fault counts the faults injected over the whole trial (zero
	// without BackendConfig.Fault).
	Fault fault.Stats
	// Groups is the world's thread-group (socket/package) count and
	// GroupSource how it was obtained — "sysfs" when the native world
	// read /sys/devices/system/cpu topology, "stripe" for the
	// fill-first fallback or an explicit Sockets config. Zero/empty on
	// worlds that don't report topology.
	Groups      int
	GroupSource string
}

// Throughput returns operations per (virtual or wall) second.
func (r *BackendResult) Throughput() float64 {
	if r.ElapsedNs <= 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.ElapsedNs) / 1e9)
}

// RunBackend executes one backend-agnostic trial on w.
func RunBackend(w backend.World, cfg BackendConfig) *BackendResult {
	cfg.defaults()
	desc, err := scheme.LookupFor(w.Kind(), cfg.Lock)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	desc = desc.Configure(scheme.Options{TLE: cfg.TLE})
	wl, err := newBackendWorkload(cfg)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	faults := fault.Arm(w, cfg.Fault)

	finish := make([]int64, cfg.Threads)
	var startNs int64
	w.Run(cfg.Threads, func(c backend.Ctx) {
		wl.Setup(w, c, desc)
		startNs = c.Now()
	}, func(c backend.Ctx) {
		t := c.Thread()
		op := wl.Worker(c, t)
		for j := 0; j < cfg.Ops; j++ {
			op(j)
			if cfg.ExternalWork > 0 {
				c.Work(c.Intn(cfg.ExternalWork))
			}
		}
		finish[t] = c.Now()
	})

	var end int64
	for _, f := range finish {
		if f > end {
			end = f
		}
	}
	elapsed := end - startNs
	if elapsed <= 0 {
		elapsed = 1
	}
	res := &BackendResult{
		Backend:   w.Kind(),
		Lock:      cfg.Lock,
		Workload:  cfg.Workload,
		Threads:   cfg.Threads,
		Ops:       uint64(cfg.Threads) * uint64(cfg.Ops),
		ElapsedNs: elapsed,
		Sync:      wl.Sync(),
		Check:     wl.Check(w),
	}
	if g, ok := w.(interface {
		Groups() int
		GroupSource() string
	}); ok {
		res.Groups, res.GroupSource = g.Groups(), g.GroupSource()
	}
	if faults != nil {
		res.Fault = faults.FaultStats()
	}
	return res
}

// backendWorkload is one backend-agnostic benchmark: shared-state
// setup, the per-thread operation, and the final-contents checksum.
//
// Worker is called once per thread, before its op loop, and returns the
// thread's operation j. Section bodies are built there, once per
// thread, and take the operation's parameters from variables the worker
// owns: a body built per operation escapes through the Critical
// interface call, and a heap object per section is most of what a short
// native section then costs.
type backendWorkload interface {
	Setup(w backend.World, c backend.Ctx, desc *scheme.Descriptor)
	Worker(c backend.Ctx, thread int) func(j int)
	Sync() []scheme.Stats
	Check(w backend.World) uint64
}

func newBackendWorkload(cfg BackendConfig) (backendWorkload, error) {
	switch cfg.Workload {
	case BackendCounter:
		return &bkCounter{}, nil
	case BackendTwoTrees:
		updaters := (cfg.Threads + 1) / 2
		if cfg.KeyRange < updaters {
			return nil, fmt.Errorf("twotrees: key range %d < %d updaters", cfg.KeyRange, updaters)
		}
		return &bkTwoTrees{cfg: cfg, updaters: updaters}, nil
	case BackendSets:
		if sets.InsertWords(cfg.Set) == 0 {
			return nil, fmt.Errorf("sets: unknown set kind %q", cfg.Set)
		}
		if cfg.KeyRange < cfg.Threads {
			return nil, fmt.Errorf("sets: key range %d < %d threads", cfg.KeyRange, cfg.Threads)
		}
		return &bkSets{cfg: cfg}, nil
	default:
		return nil, fmt.Errorf("unknown backend workload %q (have %v)", cfg.Workload, BackendWorkloads())
	}
}

// opHash is the deterministic, interleaving-independent operation
// schedule: a splitmix64-style mix of (seed, thread, op index).
func opHash(seed int64, thread, j int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 +
		uint64(thread+1)*0xbf58476d1ce4e5b9 +
		uint64(j)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bkCounter: every operation increments one shared word inside the
// critical section. Maximum conflict; increments commute, so the final
// value must equal threads*ops on any backend under any mutual
// exclusion — the sharpest conservation check available.
type bkCounter struct {
	addr int
	cs   scheme.BackendInstance
}

func (b *bkCounter) Setup(w backend.World, c backend.Ctx, desc *scheme.Descriptor) {
	b.addr = c.Alloc(1)
	b.cs = NewInstance(w, c, desc)
}

func (b *bkCounter) Worker(c backend.Ctx, _ int) func(j int) {
	cs, addr := b.cs, b.addr
	incr := func() {
		c.Store(addr, c.Load(addr)+1)
	}
	return func(int) {
		cs.Critical(c, incr)
	}
}

func (b *bkCounter) Sync() []scheme.Stats { return []scheme.Stats{b.cs.Stats()} }

func (b *bkCounter) Check(w backend.World) uint64 { return w.Peek(b.addr) }

// bkTwoTrees is the backend-agnostic shape of the paper's Figure 16
// two-trees experiment: two sets, each under its own lock; even
// threads run 100% updates against set U, odd threads run 100%
// searches against set S. The sets are direct-mapped (one membership
// word per key, plus a size word every update touches, playing the
// role of the root), and each updater owns the key residues equal to
// its updater index — so the final membership is a pure function of
// each updater's own schedule.
type bkTwoTrees struct {
	cfg      BackendConfig
	updaters int

	updMemb, updSize int
	schMemb, schSize int
	updLock, schLock scheme.BackendInstance
}

func (b *bkTwoTrees) Setup(w backend.World, c backend.Ctx, desc *scheme.Descriptor) {
	kr := b.cfg.KeyRange
	b.updMemb = c.Alloc(kr)
	b.updSize = c.Alloc(1)
	b.schMemb = c.Alloc(kr)
	b.schSize = c.Alloc(1)
	// Prefill both sets to half full (even keys), as the sim workloads
	// prefill to half the key range.
	var n uint64
	for k := 0; k < kr; k += 2 {
		c.Store(b.updMemb+k, 1)
		c.Store(b.schMemb+k, 1)
		n++
	}
	c.Store(b.updSize, n)
	c.Store(b.schSize, n)
	// Per-lock independence is the point of the experiment: each set
	// gets its own instance of the same scheme.
	b.updLock = NewInstance(w, c, desc)
	b.schLock = NewInstance(w, c, desc)
}

func (b *bkTwoTrees) Worker(c backend.Ctx, thread int) func(j int) {
	seed, kr := b.cfg.Seed, b.cfg.KeyRange
	var key int // of the operation in flight
	if thread%2 != 0 {
		// Searcher: a read-only contains on the search set.
		lock, memb := b.schLock, b.schMemb
		contains := func() {
			_ = c.Load(memb + key)
		}
		return func(j int) {
			key = int(opHash(seed, thread, j) % uint64(kr))
			lock.Critical(c, contains)
		}
	}
	// Updater: insert or delete within this updater's partition.
	lock, memb, size := b.updLock, b.updMemb, b.updSize
	u, updaters := thread/2, b.updaters
	insert := func() {
		if c.Load(memb+key) == 0 {
			c.Store(memb+key, 1)
			c.Store(size, c.Load(size)+1)
		}
	}
	remove := func() {
		if c.Load(memb+key) != 0 {
			c.Store(memb+key, 0)
			c.Store(size, c.Load(size)-1)
		}
	}
	return func(j int) {
		x := opHash(seed, thread, j)
		key = int((x>>1)%uint64(kr/updaters))*updaters + u
		if x&1 == 0 {
			lock.Critical(c, insert)
		} else {
			lock.Critical(c, remove)
		}
	}
}

func (b *bkTwoTrees) Sync() []scheme.Stats {
	return []scheme.Stats{b.updLock.Stats(), b.schLock.Stats()}
}

func (b *bkTwoTrees) Check(w backend.World) uint64 {
	var h uint64
	for k := 0; k < b.cfg.KeyRange; k++ {
		h = h*31 + w.Peek(b.updMemb+k)
		h = h*31 + w.Peek(b.schMemb+k)
	}
	h = h*31 + w.Peek(b.updSize)
	return h*31 + w.Peek(b.schSize)
}

// bkSets is the backend-agnostic shape of the paper's Figure 1 set
// microbenchmark: one pointer structure (AVL/BST/leaf-BST/skip-list)
// with nodes in backend words, every operation inside one elidable
// lock. Half the operations are searches over the whole key range; the
// other half insert or delete within the calling thread's key partition
// (keys ≡ thread mod threads), so the final membership is a pure
// function of each thread's own hashed schedule — the property the
// cross-backend checksum relies on.
type bkSets struct {
	cfg BackendConfig
	set *sets.BackendSet
	cs  scheme.BackendInstance
}

func (b *bkSets) Setup(w backend.World, c backend.Ctx, desc *scheme.Descriptor) {
	ar := arena.New(c, b.cfg.Threads+1, b.cfg.setsLaneWords())
	s, err := sets.NewBackendSet(b.cfg.Set, c, ar)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	b.set = s
	// Prefill with the even keys — the same membership the twotrees
	// prefill establishes — but inserted in a hashed order so the
	// unbalanced trees don't degenerate into spines. The shuffle is
	// pure host-side arithmetic; only the inserts touch the world.
	kr := b.cfg.KeyRange
	evens := make([]int64, 0, (kr+1)/2)
	for k := 0; k < kr; k += 2 {
		evens = append(evens, int64(k))
	}
	for i := len(evens) - 1; i > 0; i-- {
		j := int(opHash(b.cfg.Seed, -1, i) % uint64(i+1))
		evens[i], evens[j] = evens[j], evens[i]
	}
	for _, k := range evens {
		b.set.Insert(c, k)
	}
	b.cs = NewInstance(w, c, desc)
}

func (b *bkSets) Worker(c backend.Ctx, thread int) func(j int) {
	seed, kr, th := b.cfg.Seed, b.cfg.KeyRange, b.cfg.Threads
	cs, set := b.cs, b.set
	var key int64 // of the operation in flight
	contains := func() {
		set.Contains(c, key)
	}
	insert := func() {
		set.Insert(c, key)
	}
	remove := func() {
		set.Delete(c, key)
	}
	return func(j int) {
		x := opHash(seed, thread, j)
		if x&1 == 0 {
			// Search: a contains over the whole key range.
			key = int64((x >> 8) % uint64(kr))
			cs.Critical(c, contains)
			return
		}
		// Update: insert or delete within this thread's partition.
		key = int64((x>>8)%uint64(kr/th))*int64(th) + int64(thread)
		if x&2 == 0 {
			cs.Critical(c, insert)
		} else {
			cs.Critical(c, remove)
		}
	}
}

func (b *bkSets) Sync() []scheme.Stats { return []scheme.Stats{b.cs.Stats()} }

// Check validates the structural invariants of the final tree and
// returns a hash of its sorted contents. Tower heights and tree shapes
// may differ across backends (the skip-list consumes backend RNG
// streams), but membership may not — so the checksum covers keys and
// cardinality only.
func (b *bkSets) Check(w backend.World) uint64 {
	if err := b.set.CheckInvariants(w); err != nil {
		panic(fmt.Sprintf("workload: sets final state invalid: %v", err))
	}
	keys := b.set.Keys(w)
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		panic("workload: sets Keys not sorted")
	}
	h := uint64(1469598103934665603)
	for _, k := range keys {
		h = (h ^ uint64(k)) * 1099511628211
	}
	return h ^ uint64(len(keys))*0x9e3779b97f4a7c15
}
