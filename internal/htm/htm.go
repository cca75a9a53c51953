// Package htm implements a best-effort hardware transactional memory
// on top of the simulated memory (package mem) and cache model
// (package cache), mirroring Intel TSX/RTM as observed on Haswell:
//
//   - conflict detection is eager and at cache-line granularity;
//   - the requester wins: when a thread accesses a line inside another
//     in-flight transaction's write set (or writes a line in its read
//     set), the *other* transaction receives the invalidation and
//     aborts;
//   - transactional writes are buffered and become visible atomically
//     at commit; an aborted transaction's writes are discarded;
//   - an abort carries a condition code (conflict, capacity, explicit,
//     lock-held) and a hint bit indicating whether the hardware thinks
//     a retry may succeed — set for conflicts, clear for capacity;
//   - capacity is bounded by the private-cache-sized write set and a
//     larger read set; when the hyperthread sibling is active both
//     bounds are halved and transactions additionally suffer a small
//     transient-eviction probability, so a transaction may abort with
//     the hint clear and *still* succeed when retried — the effect the
//     paper documents in Figure 2.
//
// An attempt learns that it aborted at its next access (or at commit,
// or at its own Abort), does the abort's bookkeeping there, and is dead
// from then on: Read returns 0, Write and Alloc are dropped, and its
// thread is frozen (see sim.Ctx.Freeze), so the rest of the body runs
// to its end at no virtual cost and with no effect. System.Try then
// reports the outcome, which is how the lock-elision layers (packages
// tle and natle) retry. Every transactional body must therefore end on
// zeros: a loop over loaded values stops on 0, as the sets and simmap
// cores stop on the zero address (arena.Nil).
package htm

import (
	"fmt"
	bits64 "math/bits"

	"natle/internal/cache"
	"natle/internal/fault"
	"natle/internal/machine"
	"natle/internal/mem"
	"natle/internal/sim"
	"natle/internal/telemetry"
	"natle/internal/vtime"
)

// Code is a transaction abort condition code: telemetry's, so an
// abort's code reaches the recorder and the fault injector as is.
type Code = telemetry.Code

// Abort condition codes.
const (
	CodeNone     = telemetry.CodeNone
	CodeConflict = telemetry.CodeConflict // data conflict with another thread
	CodeCapacity = telemetry.CodeCapacity // read/write set overflowed the tracking capacity
	CodeExplicit = telemetry.CodeExplicit // explicit abort (XABORT) by the program
	CodeLockHeld = telemetry.CodeLockHeld // explicit abort because the elided lock was held
)

// Outcome describes one transactional attempt.
type Outcome struct {
	Committed bool
	Code      Code
	Hint      bool
}

// Stats aggregates transaction counters for one System.
type Stats struct {
	Starts  uint64
	Commits uint64
	Aborts  [telemetry.NumCodes]uint64

	// CommitDurTotal accumulates the virtual duration of committed
	// transactions (begin to commit); CommitDurTotal / Commits is the
	// average successful-transaction length the paper reports in the
	// Figure 6 footnote.
	CommitDurTotal vtime.Duration
}

// AvgCommitDuration returns the mean committed-transaction length.
func (s *Stats) AvgCommitDuration() vtime.Duration {
	if s.Commits == 0 {
		return 0
	}
	return s.CommitDurTotal / vtime.Duration(s.Commits)
}

// TotalAborts sums aborts over all condition codes.
func (s *Stats) TotalAborts() uint64 {
	var n uint64
	for _, a := range s.Aborts {
		n += a
	}
	return n
}

// AbortRate returns aborted attempts / started attempts.
func (s *Stats) AbortRate() float64 {
	if s.Starts == 0 {
		return 0
	}
	return float64(s.TotalAborts()) / float64(s.Starts)
}

// Sub returns the counter deltas s - t (for windowed measurement).
func (s Stats) Sub(t Stats) Stats { return telemetry.Sub(s, t) }

// String renders the counters compactly for logs and test failures.
func (s Stats) String() string {
	return fmt.Sprintf(
		"starts=%d commits=%d aborts=%d (conflict=%d capacity=%d explicit=%d lock-held=%d) rate=%.1f%% avg-commit=%v",
		s.Starts, s.Commits, s.TotalAborts(),
		s.Aborts[CodeConflict], s.Aborts[CodeCapacity],
		s.Aborts[CodeExplicit], s.Aborts[CodeLockHeld],
		100*s.AbortRate(), s.AvgCommitDuration())
}

// maxSlots bounds concurrently live threads (transaction slots are
// recycled when threads finish).
const maxSlots = 128

// System is the shared-memory + HTM runtime for one simulated machine.
// All simulated data structures, locks, and applications perform their
// shared accesses through it.
type System struct {
	Eng   *sim.Engine
	Mem   *mem.Space
	Cache *cache.Model
	prof  *machine.Profile

	regReaders [][2]uint64 // per line: bitmask of tx slots with the line in their read set
	regWriter  []int16     // per line: tx slot with the line in its write set, or -1
	wbAt       []int32     // per line: its index in the writer's writeLines/wb; valid while regWriter[line] >= 0

	slotOwner [maxSlots]*txState
	freeSlots []int16

	Stats Stats
	rec   telemetry.Recorder
	inj   fault.Injector // nil = no fault injection (the hot-path default)

	// CommitDelay, if non-nil, is invoked immediately before each
	// transactional commit; it is the injection hook used by the Fig 6
	// experiment (spinning before XEND to widen the contention window).
	CommitDelay func(c *sim.Ctx)

	allocCost vtime.Duration
}

// NewSystem creates the runtime for one engine, with a memory pre-sized
// to capWords.
func NewSystem(e *sim.Engine, capWords int) *System {
	s := &System{
		Eng:       e,
		Mem:       mem.NewSpace(capWords),
		Cache:     cache.New(e.Prof),
		prof:      e.Prof,
		rec:       telemetry.Nop(),
		allocCost: 30 * vtime.Nanosecond,
	}
	for i := maxSlots - 1; i >= 0; i-- {
		s.freeSlots = append(s.freeSlots, int16(i))
	}
	s.Mem.OnGrow = s.ensureLines
	s.ensureLines(s.Mem.Lines())
	e.OnThreadFinish = s.releaseThread
	return s
}

type txState struct {
	slot       int16
	active     bool // inside Try, dead or not
	aborted    bool // doomed, possibly by another thread; noticed at the next access
	dead       bool // the abort is complete: every access is a no-op until Try returns
	code       Code
	hint       bool
	spuriousIn int // accesses until an injected spurious abort (0 = unarmed)
	beginAt    vtime.Time
	lock       telemetry.LockID // elided lock attribution tag (see SetLockTag)

	readLines  []int32
	writeLines []int32
	wb         []wbLine // write buffer, parallel to writeLines
}

// wbLine buffers one cache line's transactional writes: bit w of mask
// is set once word w of the line has been written, and val[w] then
// holds the value. A line has at most one transactional writer, so
// System.wbAt finds the entry from the line without a map.
type wbLine struct {
	mask uint8
	val  [mem.WordsPerLine]uint64
}

func (s *System) state(c *sim.Ctx) *txState {
	if t, ok := c.TxSlot.(*txState); ok {
		return t
	}
	if len(s.freeSlots) == 0 {
		panic("htm: too many concurrently live threads")
	}
	slot := s.freeSlots[len(s.freeSlots)-1]
	s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
	t := &txState{slot: slot}
	s.slotOwner[slot] = t
	c.TxSlot = t
	return t
}

func (s *System) releaseThread(c *sim.Ctx) {
	t, ok := c.TxSlot.(*txState)
	if !ok {
		return
	}
	if t.active {
		s.doAbort(t, CodeExplicit, false)
		t.active = false
	}
	s.slotOwner[t.slot] = nil
	s.freeSlots = append(s.freeSlots, t.slot)
	c.TxSlot = nil
}

func (s *System) ensureLines(n int) {
	s.Cache.EnsureLines(n)
	for len(s.regWriter) < n {
		s.regWriter = append(s.regWriter, -1)
		s.wbAt = append(s.wbAt, 0)
		s.regReaders = append(s.regReaders, [2]uint64{})
	}
}

// Alloc reserves nWords of line-aligned simulated memory homed on the
// calling thread's socket, charging the allocation cost.
func (s *System) Alloc(c *sim.Ctx, nWords int) mem.Addr {
	return s.AllocHome(c, nWords, c.Socket())
}

// AllocHome is Alloc with an explicit home socket. A dead attempt's
// allocation is dropped and returns 0.
func (s *System) AllocHome(c *sim.Ctx, nWords, socket int) mem.Addr {
	// Not s.state(c): a thread's first allocation must not claim it a
	// slot, or slots would be handed out in a different order.
	if t, ok := c.TxSlot.(*txState); ok && t.dead {
		return 0
	}
	c.Advance(s.allocCost)
	a := s.Mem.Alloc(nWords, socket)
	s.ensureLines(s.Mem.Lines())
	return a
}

// InTx reports whether the calling thread is inside a transaction.
func (s *System) InTx(c *sim.Ctx) bool { return s.state(c).active }

// Slot returns the thread's dense transaction-slot index in
// [0, MaxThreads). Slots are recycled when threads finish, so they
// serve as per-live-thread ids (NATLE indexes its acquisitions matrix
// with them).
func (s *System) Slot(c *sim.Ctx) int { return int(s.state(c).slot) }

// MaxThreads is the maximum number of concurrently live simulated
// threads supported by one System.
const MaxThreads = maxSlots

// SetRecorder installs the telemetry recorder receiving transaction
// lifecycle events (and cache events, via the cache model). It should
// be installed before any locks are constructed so that their
// RegisterLock calls land in the same recorder. Passing nil restores
// the no-op recorder.
func (s *System) SetRecorder(r telemetry.Recorder) {
	if r == nil {
		r = telemetry.Nop()
	}
	s.rec = r
	s.Cache.Rec = r
}

// Recorder returns the installed telemetry recorder (never nil).
func (s *System) Recorder() telemetry.Recorder { return s.rec }

// SetInjector installs a fault injector (nil disables injection). The
// injector is consulted from the transaction lifecycle, the capacity
// accounting, the cache model's invalidation path, and the fallback
// spin lock; with nil installed each hook is a single pointer check.
func (s *System) SetInjector(inj fault.Injector) {
	s.inj = inj
	s.Cache.Inj = inj
}

// Injector returns the installed fault injector (nil when disabled).
func (s *System) Injector() fault.Injector { return s.inj }

// SetLockTag tags the calling thread's subsequent transactional
// attempts with the given lock id, attributing per-lock telemetry. The
// lock-elision layers set it on entry to their critical sections; the
// tag persists until overwritten, matching "the lock this thread is
// currently eliding".
func (s *System) SetLockTag(c *sim.Ctx, id telemetry.LockID) {
	s.state(c).lock = id
}

// --- conflict bookkeeping ---

func readerBit(slot int16) (int, uint64) { return int(slot >> 6), 1 << uint(slot&63) }

func (s *System) hasReader(line int32, slot int16) bool {
	w, b := readerBit(slot)
	return s.regReaders[line][w]&b != 0
}

// doAbort marks an in-flight transaction aborted (requester-wins) and
// removes its registrations so it causes no further conflicts.
func (s *System) doAbort(t *txState, code Code, hint bool) {
	if t == nil || !t.active || t.aborted {
		return
	}
	t.aborted = true
	t.code = code
	t.hint = hint
	s.Stats.Aborts[code]++
	s.unregister(t)
}

func (s *System) unregister(t *txState) {
	w, b := readerBit(t.slot)
	for _, line := range t.readLines {
		s.regReaders[line][w] &^= b
	}
	for _, line := range t.writeLines {
		if s.regWriter[line] == t.slot {
			s.regWriter[line] = -1
		}
	}
}

// abortConflictors aborts every in-flight transaction (other than the
// one in slot self) that would receive an invalidation from the given
// access: the line's transactional writer always, and for writes also
// every transactional reader.
func (s *System) abortConflictors(line int32, self int16, write bool) {
	if w := s.regWriter[line]; w >= 0 && w != self {
		s.doAbort(s.slotOwner[w], CodeConflict, true)
	}
	if !write {
		return
	}
	r := s.regReaders[line]
	if r[0] == 0 && r[1] == 0 {
		return
	}
	for wi := 0; wi < 2; wi++ {
		bits := r[wi]
		for bits != 0 {
			bit := bits & (-bits)
			bits &^= bit
			slot := int16(wi<<6) | int16(bits64.TrailingZeros64(bit))
			if slot != self {
				s.doAbort(s.slotOwner[slot], CodeConflict, true)
			}
		}
	}
}

// finishAbort completes an abort on the victim's own thread: it
// discards the write buffer, charges the abort cost, and leaves the
// attempt dead and its thread frozen until Try returns.
func (s *System) finishAbort(c *sim.Ctx, t *txState) {
	s.clearSets(t)
	c.Advance(s.prof.TxAbortCost)
	if s.inj != nil {
		// Lying-hint injection: the condition code is what happened; the
		// hint is only what the hardware *claims* about retrying.
		t.hint = s.inj.AbortHint(c, t.code, t.hint)
	}
	s.rec.TxAbort(c.Now(), int(t.slot), c.Socket(), t.lock,
		t.code, t.hint, c.Now().Sub(t.beginAt))
	t.dead = true
	c.Freeze()
}

func (s *System) clearSets(t *txState) {
	t.readLines = t.readLines[:0]
	t.writeLines = t.writeLines[:0]
	t.wb = t.wb[:0]
}

// capacity bounds, halved when the hyperthread sibling is active and
// further squeezed during injected capacity-pressure windows.
func (s *System) caps(c *sim.Ctx) (writeCap, readCap int) {
	writeCap, readCap = s.prof.TxWriteCap, s.prof.TxReadCap
	if c.SiblingActive() {
		writeCap /= 2
		readCap /= 2
	}
	if s.inj != nil {
		writeCap, readCap = s.inj.Caps(c, writeCap, readCap)
	}
	return
}

// trackNewLine performs the capacity accounting for a line newly added
// to the transaction's footprint and triggers a capacity abort (hint
// clear) on overflow or transient eviction. It reports whether the
// attempt died.
func (s *System) trackNewLine(c *sim.Ctx, t *txState) bool {
	writeCap, readCap := s.caps(c)
	if len(t.writeLines) > writeCap || len(t.readLines) > readCap ||
		c.SiblingActive() && s.prof.TransientEvictProb > 0 &&
			c.Float64() < s.prof.TransientEvictProb {
		s.doAbort(t, CodeCapacity, false)
		s.finishAbort(c, t)
		return true
	}
	return false
}

// injTick counts down an armed spurious abort on each transactional
// access and fires it when the countdown ends, reporting whether the
// attempt died. Spurious aborts carry the conflict code with the hint
// set, as TSX reports interrupts and other environmental aborts; the
// injector's AbortHint filter may still lie about the hint afterwards.
func (s *System) injTick(c *sim.Ctx, t *txState) bool {
	t.spuriousIn--
	if t.spuriousIn == 0 {
		s.doAbort(t, CodeConflict, true)
		s.finishAbort(c, t)
		return true
	}
	return false
}

// --- the access API ---

// Read performs one simulated word read, transactional if the thread is
// inside a transaction. The read that finds its attempt aborted, and
// every later one of that attempt, returns 0.
func (s *System) Read(c *sim.Ctx, a mem.Addr) uint64 {
	c.Checkpoint() // inert once the attempt is dead: its thread is frozen
	t := s.state(c)
	if t.dead {
		return 0
	}
	line := mem.LineOf(a)
	if t.active {
		if t.aborted {
			s.finishAbort(c, t)
			return 0
		}
		if t.spuriousIn > 0 && s.injTick(c, t) {
			return 0
		}
		if s.regWriter[line] == t.slot {
			if b, w := &t.wb[s.wbAt[line]], a%mem.WordsPerLine; b.mask>>w&1 != 0 {
				c.Advance(s.prof.L1Hit + s.prof.BaseOp)
				return b.val[w]
			}
		}
		s.abortConflictors(line, t.slot, false)
		if !s.hasReader(line, t.slot) {
			w, b := readerBit(t.slot)
			s.regReaders[line][w] |= b
			t.readLines = append(t.readLines, line)
			if s.trackNewLine(c, t) {
				return 0
			}
		}
	} else {
		s.abortConflictors(line, t.slot, false)
	}
	lat := s.Cache.Access(c.Now(), c.Core(), c.Socket(), s.Mem.Home(a), line, false)
	c.Advance(lat + s.prof.BaseOp)
	return s.Mem.Raw(a)
}

// Write performs one simulated word write, buffered if transactional.
// The write that finds its attempt aborted, and every later one of that
// attempt, is dropped.
func (s *System) Write(c *sim.Ctx, a mem.Addr, v uint64) {
	c.Checkpoint() // inert once the attempt is dead: its thread is frozen
	t := s.state(c)
	if t.dead {
		return
	}
	line := mem.LineOf(a)
	if t.active {
		if t.aborted {
			s.finishAbort(c, t)
			return
		}
		if t.spuriousIn > 0 && s.injTick(c, t) {
			return
		}
		s.abortConflictors(line, t.slot, true)
		if s.regWriter[line] != t.slot {
			s.regWriter[line] = t.slot
			s.wbAt[line] = int32(len(t.writeLines))
			t.writeLines = append(t.writeLines, line)
			t.wb = append(t.wb, wbLine{})
			if s.trackNewLine(c, t) {
				return
			}
		}
		b, w := &t.wb[s.wbAt[line]], a%mem.WordsPerLine
		b.mask |= 1 << w
		b.val[w] = v
	} else {
		s.abortConflictors(line, t.slot, true)
		s.Mem.SetRaw(a, v)
	}
	lat := s.Cache.Access(c.Now(), c.Core(), c.Socket(), s.Mem.Home(a), line, true)
	c.Advance(lat + s.prof.BaseOp)
}

// CAS performs a non-transactional atomic compare-and-swap (used by the
// fallback spin lock and by NATLE's profiling state machine). Calling
// it inside a transaction is a programming error.
func (s *System) CAS(c *sim.Ctx, a mem.Addr, old, new uint64) bool {
	t := s.state(c)
	if t.active {
		panic("htm: CAS inside a transaction")
	}
	c.Checkpoint()
	line := mem.LineOf(a)
	s.abortConflictors(line, t.slot, true)
	lat := s.Cache.Access(c.Now(), c.Core(), c.Socket(), s.Mem.Home(a), line, true)
	c.Advance(lat + s.prof.BaseOp)
	if s.Mem.Raw(a) != old {
		return false
	}
	s.Mem.SetRaw(a, new)
	return true
}

// Add performs a non-transactional atomic fetch-and-add and returns the
// new value.
func (s *System) Add(c *sim.Ctx, a mem.Addr, delta uint64) uint64 {
	t := s.state(c)
	if t.active {
		panic("htm: Add inside a transaction")
	}
	c.Checkpoint()
	line := mem.LineOf(a)
	s.abortConflictors(line, t.slot, true)
	lat := s.Cache.Access(c.Now(), c.Core(), c.Socket(), s.Mem.Home(a), line, true)
	c.Advance(lat + s.prof.BaseOp)
	v := s.Mem.Raw(a) + delta
	s.Mem.SetRaw(a, v)
	return v
}

// Abort explicitly aborts the calling thread's transaction with the
// given condition code (XABORT). The hint bit is clear, as on Intel
// explicit aborts. The attempt is dead from here on, as after any other
// abort, so the body should return: whatever it still runs is a no-op.
func (s *System) Abort(c *sim.Ctx, code Code) {
	t := s.state(c)
	if !t.active {
		panic("htm: Abort outside a transaction")
	}
	if t.dead {
		return
	}
	if !t.aborted {
		s.doAbort(t, code, false)
	}
	s.finishAbort(c, t)
}

func (s *System) begin(c *sim.Ctx, t *txState) {
	if t.active {
		panic("htm: nested transactions are not supported")
	}
	t.active = true
	t.aborted = false
	t.code = CodeNone
	t.hint = false
	t.spuriousIn = 0
	if s.inj != nil {
		t.spuriousIn = s.inj.TxStart(c)
	}
	t.beginAt = c.Now()
	s.Stats.Starts++
	s.rec.TxStart(t.beginAt, int(t.slot), c.Socket(), t.lock)
	c.Advance(s.prof.TxBeginCost)
}

// commit publishes the write buffer, or reports false, leaving the
// attempt dead, if the attempt turns out to have aborted.
func (s *System) commit(c *sim.Ctx, t *txState) bool {
	c.Checkpoint()
	if t.aborted {
		s.finishAbort(c, t)
		return false
	}
	if s.CommitDelay != nil {
		s.CommitDelay(c)
		c.Checkpoint()
		if t.aborted {
			s.finishAbort(c, t)
			return false
		}
	}
	for i, line := range t.writeLines {
		b := &t.wb[i]
		base := mem.Addr(line) * mem.WordsPerLine
		for m := b.mask; m != 0; m &= m - 1 {
			w := bits64.TrailingZeros8(m)
			s.Mem.SetRaw(base+mem.Addr(w), b.val[w])
		}
	}
	readSet, writeSet := len(t.readLines), len(t.writeLines)
	s.unregister(t)
	t.active = false
	s.clearSets(t)
	s.Stats.Commits++
	dur := c.Now().Sub(t.beginAt)
	s.Stats.CommitDurTotal += dur
	s.rec.TxCommit(c.Now(), int(t.slot), c.Socket(), t.lock, dur, readSet, writeSet)
	c.Advance(s.prof.TxCommitCost)
	return true
}

// Try runs body inside one best-effort transaction attempt and reports
// the outcome. The body must be restartable, since the caller may re-run
// it, and must end on zeros: an aborted attempt's body runs on to its
// end with every Read returning 0 (see the package comment).
func (s *System) Try(c *sim.Ctx, body func()) Outcome {
	t := s.state(c)
	s.begin(c, t)
	body()
	if t.dead || !s.commit(c, t) {
		t.active, t.dead = false, false
		c.Thaw()
		return Outcome{Code: t.code, Hint: t.hint}
	}
	return Outcome{Committed: true}
}
