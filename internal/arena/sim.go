package arena

import (
	"natle/internal/htm"
	"natle/internal/mem"
	"natle/internal/sim"
)

// Sim adapts the simulator's HTM runtime to the Mem contract: loads and
// stores go through System.Read/Write (transactional inside an attempt,
// coherence-timed outside, no-ops once the attempt is dead), and Alloc
// goes through the simulator's line-aligned allocator, homing lines on
// the calling thread's socket exactly as the structures' direct sys
// accesses used to.
type Sim struct {
	Sys *htm.System
	C   *sim.Ctx
}

// Load reads one simulated word.
func (m Sim) Load(a uint64) uint64 { return m.Sys.Read(m.C, mem.Addr(a)) }

// Store writes one simulated word.
func (m Sim) Store(a, v uint64) { m.Sys.Write(m.C, mem.Addr(a), v) }

// Alloc reserves line-aligned simulated words homed on the calling
// thread's socket.
func (m Sim) Alloc(nWords int) uint64 { return uint64(m.Sys.Alloc(m.C, nWords)) }

// Rand64 draws from the simulated thread's deterministic stream.
func (m Sim) Rand64() uint64 { return m.C.Rand64() }

// SimRaw adapts a simulated memory space to Mem for read-only
// validation walks outside any simulated thread (Keys, invariant
// checks). Store, Alloc, and Rand64 panic, as on Peek.
type SimRaw struct {
	Space *mem.Space
}

// Load reads one word with no timing or coherence effects.
func (m SimRaw) Load(a uint64) uint64 { return m.Space.Raw(mem.Addr(a)) }

// Store panics: SimRaw is read-only.
func (m SimRaw) Store(a, v uint64) { panic("arena: Store through read-only SimRaw") }

// Alloc panics: SimRaw is read-only.
func (m SimRaw) Alloc(nWords int) uint64 { panic("arena: Alloc through read-only SimRaw") }

// Rand64 panics: validation walks draw nothing from workload streams.
func (m SimRaw) Rand64() uint64 { panic("arena: Rand64 through read-only SimRaw") }
