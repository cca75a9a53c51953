// Package cctsa reproduces the paper's Section 5.3 application: the
// transactified version of ccTSA, a coverage-centric threaded de novo
// sequence assembler [Ahn 2012; Dice, Kogan & Lev 2016]. Unlike the
// original (which shards its hash map over thousands of locks), the
// transactified version stores all subsequences in a single
// lock-protected hash map — the lock this package elides with TLE or
// NATLE.
//
// The paper assembled E. coli reads shipped with the original
// software; that input is proprietary-ish test data, so this package
// generates a synthetic genome and samples reads from it with
// configurable coverage (the substitution preserves the code path:
// every read's k-mers funnel through the one shared map, which is what
// makes the workload NUMA-hostile).
package cctsa

import (
	"fmt"

	"natle/internal/backend"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/natle"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/simmap"
	"natle/internal/vtime"
)

// Config sizes the synthetic assembly job.
type Config struct {
	GenomeLen int // bases in the reference genome
	ReadLen   int // bases per read
	Coverage  int // average read coverage per base
	K         int // subsequence (k-mer) length, <= 32

	Prof    *machine.Profile
	Pin     machine.PinPolicy
	Threads int
	Seed    int64

	Lock  string        // any scheme.NamesFor(backend.Sim) entry; "" = "tle"
	NATLE *natle.Config // nil = natle.DefaultConfig
}

// DefaultConfig returns the scaled-down synthetic E. coli stand-in.
func DefaultConfig() Config {
	return Config{
		GenomeLen: 1 << 15,
		ReadLen:   64,
		Coverage:  6,
		K:         16,
	}
}

// Result reports one assembly run.
type Result struct {
	Threads   int
	Runtime   vtime.Duration // data-processing time (generation excluded)
	Contigs   int
	Assembled int // bases covered by the assembled contigs
	KmersSeen uint64

	HTM  htm.Stats
	Sync scheme.Stats // uniform scheme counters (TLE, timeline, extras)
}

// Run generates the synthetic reads and assembles them.
func Run(cfg Config) *Result {
	if cfg.GenomeLen == 0 {
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
	if cfg.Lock == "" {
		cfg.Lock = "tle"
	}
	desc, err := scheme.LookupFor(backend.Sim, cfg.Lock)
	if err != nil {
		panic(fmt.Sprintf("cctsa: %v", err))
	}
	desc = desc.Configure(scheme.Options{NATLE: cfg.NATLE})
	e := sim.New(cfg.Prof, cfg.Pin, cfg.Threads, cfg.Seed)
	sys := htm.NewSystem(e, 1<<22)
	res := &Result{Threads: cfg.Threads}

	e.Spawn(nil, func(c *sim.Ctx) {
		a := newAssembler(cfg, sys, c)
		// The single lock protecting the shared subsequence map.
		cs := desc.New(sys, c, 0)
		var finish vtime.Time
		// Reads are distributed after thread creation.
		start := e.SpawnTeam(c, cfg.Threads, func(tid int, w *sim.Ctx) {
			a.work(w, cs, tid, cfg.Threads)
			if w.Now() > finish {
				finish = w.Now()
			}
		})
		c.SetIdle(true)
		c.WaitOthers(2 * vtime.Microsecond)
		// Final sequential stage: walk the links into contigs.
		a.assemble(c)
		res.Runtime = finish.Sub(start)
		res.Contigs, res.Assembled = a.contigs, a.assembled
		res.KmersSeen = a.kmersSeen
		res.HTM = sys.Stats
		res.Sync = cs.Stats()
		if err := a.validate(); err != nil {
			panic(fmt.Sprintf("cctsa: validation failed: %v", err))
		}
	})
	e.Run()
	return res
}

type assembler struct {
	cfg Config
	sys *htm.System

	genome []uint8
	reads  []int // read start offsets, sorted order of processing is shuffled

	kmers  *simmap.Map // k-mer -> count (the single shared hash map)
	prefix *simmap.Map // read-prefix k-mer -> read index

	links     []int32 // successor read index per read (host; one writer each)
	kmersSeen uint64

	contigs   int
	assembled int
}

func newAssembler(cfg Config, sys *htm.System, c *sim.Ctx) *assembler {
	a := &assembler{cfg: cfg, sys: sys}
	a.genome = make([]uint8, cfg.GenomeLen)
	for i := range a.genome {
		a.genome[i] = uint8(c.Rand64() & 3)
	}
	nReads := cfg.GenomeLen * cfg.Coverage / cfg.ReadLen
	a.reads = make([]int, nReads)
	for i := range a.reads {
		a.reads[i] = c.Intn(cfg.GenomeLen - cfg.ReadLen)
	}
	a.links = make([]int32, nReads)
	for i := range a.links {
		a.links[i] = -1
	}
	a.kmers = simmap.New(sys, c, 13, 0)
	a.prefix = simmap.New(sys, c, 13, 0)
	return a
}

// kmerAt packs the K bases at offset off into a word.
func (a *assembler) kmerAt(off int) uint64 {
	var v uint64
	for i := 0; i < a.cfg.K; i++ {
		v = v<<2 | uint64(a.genome[off+i])
	}
	return v | 1<<63 // bias so a k-mer of all zeros is distinguishable
}

// work processes this thread's share of the reads: one critical
// section per read inserts all its k-mers into the shared map (the
// long critical sections that make this workload collapse across
// sockets under plain TLE), then a second pass links reads by overlap.
func (a *assembler) work(c *sim.Ctx, cs scheme.Instance, tid, threads int) {
	per := len(a.reads) / threads
	lo := tid * per
	hi := lo + per
	if tid == threads-1 {
		hi = len(a.reads)
	}
	var seen uint64
	for r := lo; r < hi; r++ {
		off := a.reads[r]
		n := a.cfg.ReadLen - a.cfg.K + 1
		// One short critical section per subsequence insert, as in the
		// transactified ccTSA (the hash map is the only shared state).
		for i := 0; i < n; i += 4 { // k-mer stride 4, as configured in [11]
			km := a.kmerAt(off + i)
			cs.Critical(c, func() { a.kmers.Add(c, km, 1) })
		}
		pk := a.kmerAt(off)
		cs.Critical(c, func() { a.prefix.PutIfAbsent(c, pk, uint64(r)) })
		seen += uint64((n + 3) / 4)
	}
	a.kmersSeen += seen
	for r := lo; r < hi; r++ {
		off := a.reads[r]
		// Overlap: another read whose prefix k-mer starts somewhere in
		// this read's tail.
		tail := off + a.cfg.ReadLen - a.cfg.K
		var next uint64
		found := false
		cs.Critical(c, func() {
			found = false // body may re-execute after an abort
			if v, ok := a.prefix.Get(c, a.kmerAt(tail)); ok && int(v) != r {
				next, found = v, true
			}
		})
		if found {
			a.links[r] = int32(next)
		}
	}
}

// assemble chains reads into contigs (sequential final stage).
func (a *assembler) assemble(c *sim.Ctx) {
	visited := make([]bool, len(a.reads))
	for r := range a.reads {
		if visited[r] {
			continue
		}
		a.contigs++
		length := a.cfg.ReadLen
		cur := r
		for !visited[cur] {
			visited[cur] = true
			nxt := a.links[cur]
			if nxt < 0 || visited[nxt] {
				break
			}
			length += a.cfg.K // each overlap extends the contig
			cur = int(nxt)
		}
		a.assembled += length
		c.Advance(vtime.Duration(length) * vtime.Nanosecond / 16)
	}
}

func (a *assembler) validate() error {
	perRead := (a.cfg.ReadLen - a.cfg.K + 1 + 3) / 4
	want := uint64(len(a.reads) * perRead)
	if a.kmersSeen != want {
		return fmt.Errorf("processed %d k-mers, want %d", a.kmersSeen, want)
	}
	var total uint64
	a.kmers.RawEach(func(_, v uint64) { total += v })
	if total != want {
		return fmt.Errorf("map holds %d k-mer occurrences, want %d", total, want)
	}
	if a.contigs == 0 || a.contigs > len(a.reads) {
		return fmt.Errorf("implausible contig count %d", a.contigs)
	}
	return nil
}
