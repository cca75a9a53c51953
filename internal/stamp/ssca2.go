package stamp

import (
	"fmt"

	"natle/internal/htm"
	"natle/internal/mem"
	"natle/internal/scheme"
	"natle/internal/sim"
)

// ssca2 runs the graph-construction kernel of SSCA2: threads insert
// directed edges into per-node adjacency arrays. Transactions are very
// short (read a count, append, bump the count) and conflicts occur only
// when two threads add edges at the same source node — the benchmark
// that traditionally scales well under TLE.
type ssca2 struct {
	nodes  int
	degree int // average out-degree

	sys   *htm.System
	adj   mem.Addr // per node: one region of (2 + maxDeg) words, line aligned
	slotW int      // words per node region
	maxD  int

	edges    []uint64 // src<<32|dst, generated at setup
	inserted uint64
}

func newSSCA2() *ssca2 {
	return &ssca2{nodes: 1 << 11, degree: 8}
}

// Name implements Benchmark.
func (b *ssca2) Name() string { return "ssca2" }

// Setup implements Benchmark: an R-MAT-ish skewed edge list so some
// nodes are much hotter than others, as in the real kernel.
func (b *ssca2) Setup(sys *htm.System, c *sim.Ctx, threads int) {
	b.sys = sys
	b.maxD = b.degree * 8
	b.slotW = (2 + b.maxD + mem.WordsPerLine - 1) / mem.WordsPerLine * mem.WordsPerLine
	b.adj = sys.AllocHome(c, b.nodes*b.slotW, 0)
	nEdges := b.nodes * b.degree
	b.edges = make([]uint64, 0, nEdges)
	for i := 0; i < nEdges; i++ {
		// Skewed source choice: quarter the range with p=0.6 per step.
		lo, hi := 0, b.nodes
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if c.Float64() < 0.6 {
				hi = mid
			} else {
				lo = mid
			}
		}
		src := lo
		dst := c.Intn(b.nodes)
		b.edges = append(b.edges, uint64(src)<<32|uint64(dst))
	}
}

// Work implements Benchmark.
func (b *ssca2) Work(c *sim.Ctx, cs scheme.Instance, bar *Barrier, tid, threads int) {
	lo, hi := share(len(b.edges), threads, tid)
	var done uint64
	for i := lo; i < hi; i++ {
		src := int(b.edges[i] >> 32)
		dst := b.edges[i] & 0xFFFFFFFF
		region := b.adj + mem.Addr(src*b.slotW)
		cs.Critical(c, func() {
			n := b.sys.Read(c, region)
			if int(n) < b.maxD {
				b.sys.Write(c, region+mem.Addr(2+n), dst)
				b.sys.Write(c, region, n+1)
			} else {
				// Degree overflow: count it in the second header word
				// (the real kernel grows the array; bounded here).
				b.sys.Write(c, region+1, b.sys.Read(c, region+1)+1)
			}
		})
		done++
	}
	b.inserted += done
}

// Validate implements Benchmark: stored edges + overflow counts must
// equal the generated edge count.
func (b *ssca2) Validate(sys *htm.System) error {
	var total uint64
	for n := 0; n < b.nodes; n++ {
		region := b.adj + mem.Addr(n*b.slotW)
		total += sys.Mem.Raw(region) + sys.Mem.Raw(region+1)
	}
	if total != uint64(len(b.edges)) {
		return fmt.Errorf("stored %d edges, want %d", total, len(b.edges))
	}
	if b.inserted != uint64(len(b.edges)) {
		return fmt.Errorf("threads processed %d edges, want %d", b.inserted, len(b.edges))
	}
	return nil
}
