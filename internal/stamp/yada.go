package stamp

import (
	"fmt"

	"natle/internal/htm"
	"natle/internal/mem"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/vtime"
)

// yada emulates STAMP's Delaunay mesh refinement: a work list of "bad"
// elements; each transaction takes an element, gathers its cavity (a
// neighbourhood read set of moderate size), rewrites the cavity
// (several writes), and may enqueue new bad elements. Medium-length
// transactions with irregular conflicts through shared neighbourhoods
// and the shared work list.
type yada struct {
	elements int
	initBad  int
	maxNew   int // refinement budget to guarantee termination

	sys    *htm.System
	mesh   mem.Addr // per element: quality word (line-packed, 8/line)
	wl     mem.Addr // work-list ring of element ids
	wlCap  int
	head   mem.Addr // own line
	tail   mem.Addr // own line
	budget mem.Addr // remaining new-work budget (own line)

	processed uint64
}

func newYada() *yada {
	return &yada{elements: 1 << 12, initBad: 1 << 10, maxNew: 1 << 11}
}

// Name implements Benchmark.
func (b *yada) Name() string { return "yada" }

// Setup implements Benchmark.
func (b *yada) Setup(sys *htm.System, c *sim.Ctx, threads int) {
	b.sys = sys
	b.mesh = sys.AllocHome(c, b.elements, 0)
	b.wlCap = b.initBad + b.maxNew + 64
	b.wl = sys.AllocHome(c, b.wlCap, 0)
	b.head = sys.AllocHome(c, 1, 0)
	b.tail = sys.AllocHome(c, 1, 0)
	b.budget = sys.AllocHome(c, 1, 0)
	for i := 0; i < b.elements; i++ {
		q := uint64(3 + (uint64(i)*2654435761)%13)
		sys.Mem.SetRaw(b.mesh+mem.Addr(i), q)
	}
	// Seed the work list with the initially bad elements.
	for i := 0; i < b.initBad; i++ {
		id := (i * 2654435761) % b.elements
		sys.Mem.SetRaw(b.wl+mem.Addr(i), uint64(id))
	}
	sys.Mem.SetRaw(b.tail, uint64(b.initBad))
	sys.Mem.SetRaw(b.budget, uint64(b.maxNew))
}

// cavity returns the element ids forming id's neighbourhood.
func (b *yada) cavity(id int) [6]int {
	var cav [6]int
	h := uint64(id) * 0x9E3779B97F4A7C15
	for i := range cav {
		cav[i] = (id + int(h>>(8*uint(i)))%32 - 16 + b.elements) % b.elements
	}
	cav[0] = id
	return cav
}

// Work implements Benchmark.
func (b *yada) Work(c *sim.Ctx, cs scheme.Instance, bar *Barrier, tid, threads int) {
	for {
		id := -1
		// Take one bad element from the shared work list. The body may
		// be re-executed after an abort, so it resets id first.
		cs.Critical(c, func() {
			id = -1
			h := b.sys.Read(c, b.head)
			t := b.sys.Read(c, b.tail)
			if h == t {
				return
			}
			id = int(b.sys.Read(c, b.wl+mem.Addr(h%uint64(b.wlCap))))
			b.sys.Write(c, b.head, h+1)
		})
		if id < 0 {
			return
		}
		cav := b.cavity(id)
		// Refinement transaction: read the cavity, rewrite it, and
		// possibly enqueue one new bad element.
		cs.Critical(c, func() {
			var sum uint64
			for _, e := range cav {
				sum += b.sys.Read(c, b.mesh+mem.Addr(e))
			}
			c.Advance(30 * vtime.Nanosecond) // geometry recomputation
			for _, e := range cav {
				q := b.sys.Read(c, b.mesh+mem.Addr(e))
				if q > 3 {
					b.sys.Write(c, b.mesh+mem.Addr(e), q-1)
				}
			}
			if sum%5 == 0 {
				if bud := b.sys.Read(c, b.budget); bud > 0 {
					b.sys.Write(c, b.budget, bud-1)
					t := b.sys.Read(c, b.tail)
					nid := int(sum) % b.elements
					b.sys.Write(c, b.wl+mem.Addr(t%uint64(b.wlCap)), uint64(nid))
					b.sys.Write(c, b.tail, t+1)
				}
			}
		})
		b.processed++
	}
}

// Validate implements Benchmark: the work list must drain completely
// and the number of processed elements must equal the number enqueued.
func (b *yada) Validate(sys *htm.System) error {
	h, t := sys.Mem.Raw(b.head), sys.Mem.Raw(b.tail)
	if h != t {
		return fmt.Errorf("work list not drained: head %d != tail %d", h, t)
	}
	if b.processed != t {
		return fmt.Errorf("processed %d, enqueued %d", b.processed, t)
	}
	if b.processed < uint64(b.initBad) {
		return fmt.Errorf("processed %d < initial %d", b.processed, b.initBad)
	}
	return nil
}
