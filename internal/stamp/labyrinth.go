package stamp

import (
	"fmt"

	"natle/internal/htm"
	"natle/internal/mem"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/vtime"
)

// labyrinth routes paths through a shared grid, STAMP's
// longest-transaction benchmark: each transaction breadth-first
// searches the grid (a huge read set) and then claims the found path's
// cells (a large write set). Transactions frequently overflow HTM
// capacity, so TLE degenerates to the lock and the benchmark is
// dominated by serialized execution.
type labyrinth struct {
	w, h   int
	routes int

	sys  *htm.System
	grid mem.Addr // w*h words: 0 free, else route id
	next mem.Addr // shared route index (own line)

	routed, failed uint64
}

func newLabyrinth() *labyrinth {
	return &labyrinth{w: 48, h: 48, routes: 192}
}

// Name implements Benchmark.
func (b *labyrinth) Name() string { return "labyrinth" }

// Setup implements Benchmark.
func (b *labyrinth) Setup(sys *htm.System, c *sim.Ctx, threads int) {
	b.sys = sys
	b.grid = sys.AllocHome(c, b.w*b.h, 0)
	b.next = sys.AllocHome(c, 1, 0)
}

func (b *labyrinth) cell(x, y int) mem.Addr { return b.grid + mem.Addr(y*b.w+x) }

// endpoints derives route r's source and destination deterministically.
func (b *labyrinth) endpoints(r int) (sx, sy, dx, dy int) {
	h1 := uint64(r)*0x9E3779B97F4A7C15 + 12345
	h2 := uint64(r)*0xBF58476D1CE4E5B9 + 54321
	sx = int(h1 % uint64(b.w))
	sy = int((h1 >> 16) % uint64(b.h))
	dx = int(h2 % uint64(b.w))
	dy = int((h2 >> 16) % uint64(b.h))
	return
}

// Work implements Benchmark.
func (b *labyrinth) Work(c *sim.Ctx, cs scheme.Instance, bar *Barrier, tid, threads int) {
	for {
		r := -1
		// Claim the next route id (short transaction). The body may be
		// re-executed after an abort, so it resets r first.
		cs.Critical(c, func() {
			r = -1
			n := b.sys.Read(c, b.next)
			if int(n) < b.routes {
				b.sys.Write(c, b.next, n+1)
				r = int(n)
			}
		})
		if r < 0 {
			return
		}
		sx, sy, dx, dy := b.endpoints(r)
		// Route transaction: BFS over the grid (reads) + path claim
		// (writes), all atomic.
		ok := false
		cs.Critical(c, func() {
			ok = b.route(c, r+1, sx, sy, dx, dy)
		})
		if ok {
			b.routed++
		} else {
			b.failed++
		}
	}
}

// route performs the in-transaction BFS and path claim. The BFS
// bookkeeping (parents, queue) is thread-local; only grid cells are
// shared reads/writes.
func (b *labyrinth) route(c *sim.Ctx, id int, sx, sy, dx, dy int) bool {
	if sx == dx && sy == dy {
		return true
	}
	size := b.w * b.h
	parent := make([]int32, size)
	for i := range parent {
		parent[i] = -1
	}
	start, goal := sy*b.w+sx, dy*b.w+dx
	if b.sys.Read(c, b.grid+mem.Addr(start)) != 0 ||
		b.sys.Read(c, b.grid+mem.Addr(goal)) != 0 {
		return false
	}
	queue := []int32{int32(start)}
	parent[start] = int32(start)
	found := false
	for len(queue) > 0 && !found {
		cur := int(queue[0])
		queue = queue[1:]
		x, y := cur%b.w, cur/b.w
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || ny < 0 || nx >= b.w || ny >= b.h {
				continue
			}
			n := ny*b.w + nx
			if parent[n] >= 0 {
				continue
			}
			if b.sys.Read(c, b.grid+mem.Addr(n)) != 0 {
				parent[n] = -2 // occupied
				continue
			}
			parent[n] = int32(cur)
			if n == goal {
				found = true
				break
			}
			queue = append(queue, int32(n))
		}
		c.Advance(2 * vtime.Nanosecond) // expansion bookkeeping
	}
	if !found {
		return false
	}
	// Claim the path.
	for n := goal; ; n = int(parent[n]) {
		b.sys.Write(c, b.grid+mem.Addr(n), uint64(id))
		if n == int(parent[n]) {
			break
		}
	}
	return true
}

// Validate implements Benchmark: every route accounted for, and each
// routed id appears as a connected claim in the grid.
func (b *labyrinth) Validate(sys *htm.System) error {
	if b.routed+b.failed != uint64(b.routes) {
		return fmt.Errorf("routed %d + failed %d != %d routes", b.routed, b.failed, b.routes)
	}
	if b.routed == 0 {
		return fmt.Errorf("no routes succeeded")
	}
	// Count claimed cells per id; each successful route claims at
	// least two cells (source and goal) unless degenerate.
	claims := map[uint64]int{}
	for i := 0; i < b.w*b.h; i++ {
		if v := sys.Mem.Raw(b.grid + mem.Addr(i)); v != 0 {
			claims[v]++
		}
	}
	if len(claims) > int(b.routed) {
		return fmt.Errorf("%d route ids in grid, but only %d routed", len(claims), b.routed)
	}
	return nil
}
