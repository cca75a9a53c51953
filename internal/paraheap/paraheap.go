// Package paraheap reproduces the paper's Section 5.4 application:
// paraheap-k, a small parallel heap-based k-means clustering program
// developed for galactic spectral data [Jenne et al. 2014].
//
// Structure mirrored from the paper's description:
//
//   - 7 critical sections: 6 very short ones updating shared counters,
//     plus one that inserts a data point into a shared heap;
//   - multiple locks (each counter group and the heap have their own),
//     making it an interesting multi-lock NATLE case;
//   - worker threads are created anew twice per iteration (once for
//     the associate phase, once for the recalculate phase), so thread
//     creation and pinning overhead recur throughout the run — the
//     effect behind the paper's pinned-vs-unpinned Figure 19;
//   - iteration stops when the share of points keeping their centroid
//     association exceeds a threshold (99.9% by default).
//
// The galactic input file is replaced by a synthetic mixture of
// Gaussian clusters (same code path; the clustering loop only sees
// coordinates).
package paraheap

import (
	"fmt"
	"math"

	"natle/internal/backend"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/mem"
	"natle/internal/natle"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/vtime"
)

// Config sizes the clustering job.
type Config struct {
	Points    int
	K         int     // clusters
	Dims      int     // coordinate dimensions (3 for galactic data)
	Threshold float64 // stable-association share that stops iteration
	MaxIters  int

	Prof    *machine.Profile
	Pin     machine.PinPolicy
	Threads int
	Seed    int64

	Lock  string // any scheme.Names() entry; "" = "tle"
	NATLE *natle.Config
}

// DefaultConfig returns the scaled-down synthetic sky.
func DefaultConfig() Config {
	return Config{
		Points:    16384,
		K:         8,
		Dims:      3,
		Threshold: 0.999,
		MaxIters:  14,
	}
}

// Result reports one run.
type Result struct {
	Threads    int
	Runtime    vtime.Duration // data-processing time only
	Iterations int
	HTM        htm.Stats
	Locks      []scheme.Stats // per-lock scheme counters (7 entries)
}

const heapCap = 64 // top-distance outlier heap capacity

// Run executes paraheap-k.
func Run(cfg Config) *Result {
	if cfg.Points == 0 {
		base := DefaultConfig()
		base.Prof, base.Pin = cfg.Prof, cfg.Pin
		base.Threads, base.Seed = cfg.Threads, cfg.Seed
		base.Lock, base.NATLE = cfg.Lock, cfg.NATLE
		cfg = base
	}
	if cfg.Prof == nil {
		cfg.Prof = machine.LargeX52()
	}
	if cfg.Pin == nil {
		cfg.Pin = machine.FillSocketFirst{}
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	e := sim.New(cfg.Prof, cfg.Pin, cfg.Threads+1, cfg.Seed)
	return run(cfg, htm.NewSystem(e, 1<<22))
}

// run is Run on a caller-built system for a defaulted cfg.
func run(cfg Config, sys *htm.System) *Result {
	e := sys.Eng
	res := &Result{Threads: cfg.Threads}

	e.Spawn(nil, func(c *sim.Ctx) {
		p := newProgram(cfg, sys, c)
		start := c.Now()
		p.cluster(c, e)
		res.Runtime = c.Now().Sub(start)
		res.Iterations = p.iters
		res.HTM = sys.Stats
		for _, l := range p.locks {
			res.Locks = append(res.Locks, l.Stats())
		}
		if err := p.validate(); err != nil {
			panic(fmt.Sprintf("paraheap: validation failed: %v", err))
		}
	})
	e.Run()
	return res
}

type program struct {
	cfg Config
	sys *htm.System

	points    mem.Addr // Points*Dims float words
	centroids mem.Addr // K*Dims float words
	assign    mem.Addr // Points words
	// Shared counters, each on its own line, each with its own lock
	// (the six short critical sections).
	counters [6]mem.Addr
	// Outlier heap: [size, (distBits, point) pairs...].
	heap mem.Addr

	locks [7]scheme.Instance

	iters     int
	processed uint64
}

func f2w(f float64) uint64 { return math.Float64bits(f) }
func w2f(w uint64) float64 { return math.Float64frombits(w) }

func newProgram(cfg Config, sys *htm.System, c *sim.Ctx) *program {
	p := &program{cfg: cfg, sys: sys}
	p.points = sys.AllocHome(c, cfg.Points*cfg.Dims, 0)
	p.centroids = sys.AllocHome(c, cfg.K*cfg.Dims, 0)
	p.assign = sys.AllocHome(c, cfg.Points, 0)
	for i := range p.counters {
		p.counters[i] = sys.AllocHome(c, 1, 0)
	}
	p.heap = sys.AllocHome(c, 1+2*heapCap, 0)
	// Synthetic sky: K Gaussian blobs.
	for i := 0; i < cfg.Points; i++ {
		cl := i % cfg.K
		for d := 0; d < cfg.Dims; d++ {
			v := 10*float64(cl) + 2*(c.Float64()+c.Float64()-1)
			sys.Mem.SetRaw(p.points+mem.Addr(i*cfg.Dims+d), f2w(v))
		}
		sys.Mem.SetRaw(p.assign+mem.Addr(i), uint64(cfg.K)) // unassigned
	}
	for j := 0; j < cfg.K; j++ {
		for d := 0; d < cfg.Dims; d++ {
			v := 10 * float64(cfg.K) * c.Float64()
			sys.Mem.SetRaw(p.centroids+mem.Addr(j*cfg.Dims+d), f2w(v))
		}
	}
	name := cfg.Lock
	if name == "" {
		name = "tle"
	}
	desc, err := scheme.LookupFor(backend.Sim, name)
	if err != nil {
		panic(fmt.Sprintf("paraheap: %v", err))
	}
	desc = desc.Configure(scheme.Options{NATLE: cfg.NATLE})
	// Each counter group and the heap has its own lock (the multi-lock
	// structure that makes this an interesting NATLE case).
	for i := range p.locks {
		p.locks[i] = desc.New(sys, c, 0)
	}
	return p
}

// cluster runs the iterative loop; each phase creates fresh worker
// threads, as the real program does (the behaviour behind Fig 19).
func (p *program) cluster(c *sim.Ctx, e *sim.Engine) {
	cfg := p.cfg
	perThread := make([][]float64, cfg.Threads) // partial centroid sums
	counts := make([][]uint64, cfg.Threads)
	for p.iters < cfg.MaxIters {
		p.iters++
		// Reset the per-iteration counters under their locks (counter 4
		// is the running total across iterations and survives).
		for i, ctr := range p.counters {
			if i == 4 {
				continue
			}
			a := ctr
			p.locks[i].Critical(c, func() { p.sys.Write(c, a, 0) })
		}
		p.sys.Mem.SetRaw(p.heap, 0)

		// Phase 1: associate points with centroids (fresh threads).
		for t := 0; t < cfg.Threads; t++ {
			tid := t
			e.Spawn(c, func(w *sim.Ctx) { p.associate(w, tid) })
		}
		c.SetIdle(true)
		c.WaitOthers(vtime.Microsecond)
		c.SetIdle(false)

		stable := w2fCount(p.sys.Mem.Raw(p.counters[1]))
		// Phase 2: recalculate centroids (fresh threads again).
		for t := 0; t < cfg.Threads; t++ {
			tid := t
			if perThread[tid] == nil {
				perThread[tid] = make([]float64, cfg.K*cfg.Dims)
				counts[tid] = make([]uint64, cfg.K)
			}
			e.Spawn(c, func(w *sim.Ctx) { p.recalc(w, tid, perThread[tid], counts[tid]) })
		}
		c.SetIdle(true)
		c.WaitOthers(vtime.Microsecond)
		c.SetIdle(false)
		p.fold(c, perThread, counts)

		if float64(stable)/float64(cfg.Points) >= cfg.Threshold {
			break
		}
	}
}

func w2fCount(v uint64) int { return int(v) }

// associate is phase 1: nearest-centroid assignment plus the six
// counter critical sections and the heap insertion.
func (p *program) associate(w *sim.Ctx, tid int) {
	cfg := p.cfg
	per := cfg.Points / cfg.Threads
	lo := tid * per
	hi := lo + per
	if tid == cfg.Threads-1 {
		hi = cfg.Points
	}
	// The shared counters are updated in small chunks throughout the
	// scan (as the original program's "very short critical sections"
	// are), so counter traffic scales with the data, not with the
	// thread count.
	const chunk = 16
	var localProcessed uint64
	var chunkProcessed, chunkStable uint64
	maxDist := 0.0
	maxPoint := -1
	flush := func() {
		if chunkProcessed == 0 {
			return
		}
		p.bump(w, 0, chunkProcessed) // CS 1: points processed
		p.bump(w, 1, chunkStable)    // CS 2: stable associations
		p.bump(w, 4, chunkProcessed) // CS 5: running total
		chunkProcessed, chunkStable = 0, 0
	}
	for i := lo; i < hi; i++ {
		var pt [8]float64
		for d := 0; d < cfg.Dims; d++ {
			pt[d] = w2f(p.sys.Read(w, p.points+mem.Addr(i*cfg.Dims+d)))
		}
		best, bestD := 0, math.MaxFloat64
		for j := 0; j < cfg.K; j++ {
			dist := 0.0
			for d := 0; d < cfg.Dims; d++ {
				diff := pt[d] - w2f(p.sys.Read(w, p.centroids+mem.Addr(j*cfg.Dims+d)))
				dist += diff * diff
			}
			w.Advance(vtime.Duration(cfg.Dims) * vtime.Nanosecond / 2)
			if dist < bestD {
				best, bestD = j, dist
			}
		}
		old := p.sys.Read(w, p.assign+mem.Addr(i))
		p.sys.Write(w, p.assign+mem.Addr(i), uint64(best))
		localProcessed++
		chunkProcessed++
		if int(old) == best {
			chunkStable++
		}
		if bestD > maxDist {
			maxDist, maxPoint = bestD, i
		}
		// CS 7: every point is offered to the shared outlier heap (the
		// heap-based part of the algorithm).
		p.heapInsert(w, bestD, i)
		if chunkProcessed >= chunk {
			flush()
		}
	}
	flush()
	_ = maxDist
	_ = maxPoint
	// Per-phase bookkeeping counters (CSs 3, 4, 6).
	p.bump(w, 2, 1)             // phase-entry count
	p.bump(w, 3, uint64(tid)+1) // work ticket accounting
	p.bump(w, 5, 1)             // phase-exit count
	p.processed += localProcessed
}

func (p *program) bump(w *sim.Ctx, i int, delta uint64) {
	a := p.counters[i]
	p.locks[i].Critical(w, func() {
		p.sys.Write(w, a, p.sys.Read(w, a)+delta)
	})
}

// heapInsert is the heap critical section: a bounded min-heap keeping
// the largest distances (replace-min when full).
func (p *program) heapInsert(w *sim.Ctx, dist float64, point int) {
	p.locks[6].Critical(w, func() {
		n := int(p.sys.Read(w, p.heap))
		at := func(i int) mem.Addr { return p.heap + mem.Addr(1+2*i) }
		get := func(i int) float64 { return w2f(p.sys.Read(w, at(i))) }
		set := func(i int, d float64, pt int) {
			p.sys.Write(w, at(i), f2w(d))
			p.sys.Write(w, at(i)+1, uint64(pt))
		}
		if n < heapCap {
			// Sift up.
			i := n
			set(i, dist, point)
			for i > 0 {
				parent := (i - 1) / 2
				if get(parent) <= get(i) {
					break
				}
				pd, pp := get(parent), int(p.sys.Read(w, at(parent)+1))
				cd, cp := get(i), int(p.sys.Read(w, at(i)+1))
				set(parent, cd, cp)
				set(i, pd, pp)
				i = parent
			}
			p.sys.Write(w, p.heap, uint64(n+1))
			return
		}
		if dist <= get(0) {
			return
		}
		// Replace min and sift down.
		set(0, dist, point)
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < heapCap && get(l) < get(smallest) {
				smallest = l
			}
			if r < heapCap && get(r) < get(smallest) {
				smallest = r
			}
			if smallest == i {
				return
			}
			sd, sp := get(smallest), int(p.sys.Read(w, at(smallest)+1))
			cd, cp := get(i), int(p.sys.Read(w, at(i)+1))
			set(smallest, cd, cp)
			set(i, sd, sp)
			i = smallest
		}
	})
}

// recalc is phase 2: per-thread partial centroid sums (local), folded
// under a lock by each thread into the shared centroids.
func (p *program) recalc(w *sim.Ctx, tid int, sums []float64, counts []uint64) {
	cfg := p.cfg
	for i := range sums {
		sums[i] = 0
	}
	for i := range counts {
		counts[i] = 0
	}
	per := cfg.Points / cfg.Threads
	lo := tid * per
	hi := lo + per
	if tid == cfg.Threads-1 {
		hi = cfg.Points
	}
	for i := lo; i < hi; i++ {
		cl := int(p.sys.Read(w, p.assign+mem.Addr(i)))
		for d := 0; d < cfg.Dims; d++ {
			sums[cl*cfg.Dims+d] += w2f(p.sys.Read(w, p.points+mem.Addr(i*cfg.Dims+d)))
		}
		counts[cl]++
	}
}

// fold combines the per-thread partials into new centroids (driver).
func (p *program) fold(c *sim.Ctx, perThread [][]float64, counts [][]uint64) {
	cfg := p.cfg
	for j := 0; j < cfg.K; j++ {
		var n uint64
		for t := 0; t < cfg.Threads; t++ {
			n += counts[t][j]
		}
		if n == 0 {
			continue
		}
		for d := 0; d < cfg.Dims; d++ {
			var sum float64
			for t := 0; t < cfg.Threads; t++ {
				sum += perThread[t][j*cfg.Dims+d]
			}
			p.sys.Write(c, p.centroids+mem.Addr(j*cfg.Dims+d), f2w(sum/float64(n)))
		}
	}
}

func (p *program) validate() error {
	want := uint64(p.cfg.Points * p.iters)
	if p.processed != want {
		return fmt.Errorf("processed %d point-iterations, want %d", p.processed, want)
	}
	if got := p.sys.Mem.Raw(p.counters[4]); got != want {
		return fmt.Errorf("running-total counter %d, want %d", got, want)
	}
	if n := p.sys.Mem.Raw(p.heap); n == 0 || n > heapCap {
		return fmt.Errorf("heap size %d out of range", n)
	}
	// Heap property check from raw memory.
	for i := 1; i < int(p.sys.Mem.Raw(p.heap)); i++ {
		parent := (i - 1) / 2
		pd := w2f(p.sys.Mem.Raw(p.heap + mem.Addr(1+2*parent)))
		cd := w2f(p.sys.Mem.Raw(p.heap + mem.Addr(1+2*i)))
		if pd > cd {
			return fmt.Errorf("heap property violated at %d", i)
		}
	}
	if p.iters == 0 {
		return fmt.Errorf("no iterations ran")
	}
	return nil
}
