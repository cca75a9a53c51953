package stamp

import (
	"fmt"
	"math"

	"natle/internal/htm"
	"natle/internal/mem"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/vtime"
)

// kmeans clusters D-dimensional points into K centroids. Per STAMP,
// each point assignment is computed outside transactions and the
// accumulation into the new centroid is one short transaction; the
// high-contention variant uses few clusters (many threads hit the same
// accumulator), the low-contention variant many clusters.
type kmeans struct {
	high bool

	nPoints, dims, k, iters int

	sys       *htm.System
	points    mem.Addr // nPoints * dims float64-bit words
	centroids mem.Addr // k * dims words, rewritten between iterations
	accum     mem.Addr // k lines: [count, sum_0 .. sum_{dims-1}]
	assigned  mem.Addr // nPoints words

	totalAssigned uint64
}

func newKMeans(high bool) *kmeans {
	k := &kmeans{
		high:    high,
		nPoints: 2048,
		dims:    4,
		iters:   3,
		k:       16,
	}
	if high {
		k.k = 4
	}
	return k
}

// Name implements Benchmark.
func (b *kmeans) Name() string {
	if b.high {
		return "kmeans-high"
	}
	return "kmeans-low"
}

func f2w(f float64) uint64 { return math.Float64bits(f) }
func w2f(w uint64) float64 { return math.Float64frombits(w) }

// Setup implements Benchmark: points are drawn from k Gaussian-ish
// clusters so the algorithm has real structure to find.
func (b *kmeans) Setup(sys *htm.System, c *sim.Ctx, threads int) {
	b.sys = sys
	b.points = sys.AllocHome(c, b.nPoints*b.dims, 0)
	b.centroids = sys.AllocHome(c, b.k*b.dims, 0)
	// One cache line per accumulator so transactions on different
	// clusters do not false-share.
	b.accum = sys.AllocHome(c, b.k*mem.WordsPerLine, 0)
	b.assigned = sys.AllocHome(c, b.nPoints, 0)
	for i := 0; i < b.nPoints; i++ {
		cl := i % b.k
		for d := 0; d < b.dims; d++ {
			v := float64(cl) + 0.3*(c.Float64()-0.5)
			sys.Mem.SetRaw(b.points+mem.Addr(i*b.dims+d), f2w(v))
		}
	}
	for j := 0; j < b.k; j++ {
		for d := 0; d < b.dims; d++ {
			v := float64(b.k) * c.Float64()
			sys.Mem.SetRaw(b.centroids+mem.Addr(j*b.dims+d), f2w(v))
		}
	}
}

// Work implements Benchmark.
func (b *kmeans) Work(c *sim.Ctx, cs scheme.Instance, bar *Barrier, tid, threads int) {
	lo, hi := share(b.nPoints, threads, tid)
	for it := 0; it < b.iters; it++ {
		// Assignment phase: pure reads plus local float math.
		for i := lo; i < hi; i++ {
			best, bestD := 0, math.MaxFloat64
			var pt [8]float64
			for d := 0; d < b.dims; d++ {
				pt[d] = w2f(b.sys.Read(c, b.points+mem.Addr(i*b.dims+d)))
			}
			for j := 0; j < b.k; j++ {
				dist := 0.0
				for d := 0; d < b.dims; d++ {
					diff := pt[d] - w2f(b.sys.Read(c, b.centroids+mem.Addr(j*b.dims+d)))
					dist += diff * diff
				}
				c.Advance(vtime.Duration(4*b.dims) * vtime.Nanosecond / 4) // distance math
				if dist < bestD {
					best, bestD = j, dist
				}
			}
			b.sys.Write(c, b.assigned+mem.Addr(i), uint64(best))
			// Transaction: fold the point into the chosen centroid's
			// accumulator (the contended STAMP transaction).
			acc := b.accum + mem.Addr(best*mem.WordsPerLine)
			cs.Critical(c, func() {
				b.sys.Write(c, acc, b.sys.Read(c, acc)+1)
				for d := 0; d < b.dims; d++ {
					a := acc + mem.Addr(1+d)
					b.sys.Write(c, a, f2w(w2f(b.sys.Read(c, a))+pt[d]))
				}
			})
		}
		bar.Wait(c)
		// Thread 0 recomputes centroids from the accumulators.
		if tid == 0 {
			for j := 0; j < b.k; j++ {
				acc := b.accum + mem.Addr(j*mem.WordsPerLine)
				var folded uint64
				cs.Critical(c, func() {
					folded = 0 // body may re-execute after an abort
					n := b.sys.Read(c, acc)
					if n == 0 {
						return
					}
					for d := 0; d < b.dims; d++ {
						sum := w2f(b.sys.Read(c, acc+mem.Addr(1+d)))
						b.sys.Write(c, b.centroids+mem.Addr(j*b.dims+d), f2w(sum/float64(n)))
						b.sys.Write(c, acc+mem.Addr(1+d), f2w(0))
					}
					folded = n
					b.sys.Write(c, acc, 0)
				})
				b.totalAssigned += folded
			}
		}
		bar.Wait(c)
	}
}

// Validate implements Benchmark: every point must have been folded
// into an accumulator exactly once per iteration.
func (b *kmeans) Validate(sys *htm.System) error {
	want := uint64(b.nPoints * b.iters)
	if b.totalAssigned != want {
		return fmt.Errorf("accumulated %d point-iterations, want %d", b.totalAssigned, want)
	}
	return nil
}
