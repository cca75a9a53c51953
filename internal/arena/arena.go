// Package arena provides the backend-agnostic word-memory contract the
// structure layer (internal/sets, internal/simmap) is written against,
// plus a bump allocator that carves structure nodes out of backend
// words.
//
// The point of the indirection: the search trees and the hash map used
// to speak directly to the simulator (*htm.System / *sim.Ctx). To run
// the same structures on the native backend — real goroutines over a
// real []atomic.Uint64 — every access has to flow through a contract
// both worlds implement. Mem is that contract, and it is deliberately
// generic-shaped: the structure cores take a type parameter constrained
// to Mem, so each backend's adapter is monomorphized and the per-word
// loads and stores compile to direct calls, not interface dispatch.
//
// The Arena itself lives *inside* backend words: each allocation lane
// keeps its bump cursor in a backend word, read and written through the
// same Ctx.Load/Store every other access uses. That makes allocation
// transactional — an optimistic attempt that allocates a node and then
// aborts rolls its cursor back with the rest of its writes, so the
// retry re-allocates the same words and nothing leaks.
package arena

import (
	"fmt"

	"natle/internal/backend"
	"natle/internal/mem"
)

// Nil is the null address. Both backends reserve the low words of their
// spaces (the simulator burns line 0, the arena places its cursor block
// before its data region), so no valid node ever lands at 0.
const Nil uint64 = 0

// Mem is the word-memory contract the structure cores are generic over:
// word load/store, node allocation, and the per-thread deterministic
// RNG (the skiplist consumes random bits through the same stream the
// rest of the workload uses, which is what keeps cross-backend
// schedules comparable).
//
// Addresses are word indices into the backend's flat space. Load and
// Store are transactional when called inside a critical-section body;
// Alloc may be called inside a body too (the arena cursor is itself a
// backend word, so the bump write is covered by the same transaction).
type Mem interface {
	Load(a uint64) uint64
	Store(a, v uint64)
	Alloc(nWords int) uint64
	Rand64() uint64
}

// Arena is a per-thread-laned bump allocator over backend words.
//
// Layout, in backend address order:
//
//	[cursor block]  one word per lane, one cache line apart, so two
//	                threads bumping their cursors never conflict on a
//	                line.
//	[data block]    lanes * laneWords words, lane-contiguous.
//
// Each lane's cursor holds the lane-relative offset of its next free
// word and is accessed through Ctx.Load/Store, so an aborted optimistic
// attempt rolls the bump back along with the node words it initialized.
// Allocations are padded to whole cache lines, mirroring the
// simulator's allocator, so nodes from one lane never share a line.
type Arena struct {
	lanes     int
	laneWords int
	cursors   int // backend address of the first cursor word
	data      int // backend address of lane 0's first data word
}

// New carves an arena out of the world during setup. lanes is typically
// threads+1 (lane 0 for the setup context, lane t+1 for thread t);
// laneWords is the per-lane capacity and is rounded up to whole lines.
func New(c backend.Ctx, lanes, laneWords int) *Arena {
	if lanes <= 0 || laneWords <= 0 {
		panic("arena: non-positive lane configuration")
	}
	laneWords = roundLine(laneWords)
	a := &Arena{lanes: lanes, laneWords: laneWords}
	a.cursors = c.Alloc(lanes * mem.WordsPerLine)
	a.data = c.Alloc(lanes * laneWords)
	return a
}

// Lanes returns the number of allocation lanes.
func (a *Arena) Lanes() int { return a.lanes }

// LaneWords returns the line-rounded per-lane capacity in words.
func (a *Arena) LaneWords() int { return a.laneWords }

// Alloc bumps the given lane's cursor by a line-rounded nWords and
// returns the backend address of the allocation. The cursor word is
// read and written through c, so inside a critical section the bump is
// transactional. Lane exhaustion panics: arenas are sized up front from
// the workload's op budget, so running out is a sizing bug, not a
// recoverable condition.
func (a *Arena) Alloc(c backend.Ctx, lane, nWords int) uint64 {
	if lane < 0 || lane >= a.lanes {
		panic(fmt.Sprintf("arena: lane %d out of range [0,%d)", lane, a.lanes))
	}
	if nWords <= 0 {
		panic("arena: Alloc with non-positive size")
	}
	n := uint64(roundLine(nWords))
	cur := a.cursors + lane*mem.WordsPerLine
	off := c.Load(cur)
	if off+n > uint64(a.laneWords) {
		panic(fmt.Sprintf("arena: lane %d exhausted (%d of %d words)", lane, off, a.laneWords))
	}
	c.Store(cur, off+n)
	return uint64(a.data+lane*a.laneWords) + off
}

// roundLine pads nWords up to a whole number of cache lines.
func roundLine(nWords int) int {
	return (nWords + mem.WordsPerLine - 1) / mem.WordsPerLine * mem.WordsPerLine
}

// RoundLine exposes the allocator's line rounding for memory-sizing
// estimators: a structure that allocates nodeWords per insert consumes
// RoundLine(nodeWords) arena words per insert.
func RoundLine(nWords int) int { return roundLine(nWords) }

// Backend adapts a backend.Ctx plus an Arena lane to the Mem contract.
// It is a small value (not a pointer) so the generic structure cores
// instantiate over it directly.
type Backend struct {
	C    backend.Ctx
	A    *Arena
	Lane int
}

// Bind returns the adapter for c's own lane: lane t+1 for thread t,
// lane 0 for the setup context (Thread() == -1).
func Bind(c backend.Ctx, a *Arena) Backend {
	return Backend{C: c, A: a, Lane: c.Thread() + 1}
}

// Load reads one backend word.
func (m Backend) Load(a uint64) uint64 { return m.C.Load(int(a)) }

// Store writes one backend word.
func (m Backend) Store(a, v uint64) { m.C.Store(int(a), v) }

// Alloc bumps the bound lane.
func (m Backend) Alloc(nWords int) uint64 { return m.A.Alloc(m.C, m.Lane, nWords) }

// Rand64 draws from the context's deterministic per-thread stream.
func (m Backend) Rand64() uint64 { return m.C.Rand64() }

// Peek adapts a quiesced backend.World to Mem for read-only validation
// walks (invariant checks, final-contents checksums). It must only be
// used after World.Run returns; Store, Alloc, and Rand64 panic.
type Peek struct {
	W backend.World
}

// Load reads one word without coherence or timing effects.
func (m Peek) Load(a uint64) uint64 { return m.W.Peek(int(a)) }

// Store panics: Peek is read-only.
func (m Peek) Store(a, v uint64) { panic("arena: Store through read-only Peek") }

// Alloc panics: Peek is read-only.
func (m Peek) Alloc(nWords int) uint64 { panic("arena: Alloc through read-only Peek") }

// Rand64 panics: validation walks must be deterministic and draw
// nothing from workload RNG streams.
func (m Peek) Rand64() uint64 { panic("arena: Rand64 through read-only Peek") }
