// Package telemetry is the observability substrate for the simulated
// HTM stack: a Recorder interface receiving per-transaction lifecycle
// events (start, commit, abort, lock fallback, throttle wait) and
// cache events (miss, invalidation), all stamped with virtual time
// from package vtime.
//
// Two recorders are provided:
//
//   - Nop, whose methods are empty so the hot path costs nothing when
//     telemetry is off (every emitting layer holds a Recorder and
//     defaults to Nop);
//   - Collector, which aggregates events into sharded counters, a
//     per-lock × per-socket × per-abort-cause attribution matrix (the
//     axes of the paper's Figures 5, 12 and 17), log₂-bucketed
//     duration histograms (commit latency, abort-to-retry gap,
//     fallback hold time, throttle wait) with percentile queries, and
//     an optional bounded ring-buffer event trace exportable as Chrome
//     trace_event JSON (see export.go).
//
// The package depends only on vtime so that every layer of the stack
// (cache, htm, tle, natle, workload, harness) can emit events without
// import cycles. Package htm's abort code is this package's Code (a
// type alias), so the two cannot drift apart.
package telemetry

import (
	"fmt"

	"natle/internal/vtime"
)

// Code is a transaction abort condition code; htm.Code is an alias of
// it.
type Code uint8

// Abort condition codes.
const (
	CodeNone Code = iota
	CodeConflict
	CodeCapacity
	CodeExplicit
	CodeLockHeld
	NumCodes
)

// String returns the name of the abort code.
func (c Code) String() string {
	switch c {
	case CodeNone:
		return "none"
	case CodeConflict:
		return "conflict"
	case CodeCapacity:
		return "capacity"
	case CodeExplicit:
		return "explicit"
	case CodeLockHeld:
		return "lock-held"
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// LockID identifies one registered lock within a Recorder. The zero
// value NoLock means "no lock attribution" (e.g. raw transactions run
// outside any elision layer).
type LockID int32

// NoLock is the unattributed lock id.
const NoLock LockID = 0

// MaxSockets bounds the per-socket attribution axes (matches the
// widest simulated machine).
const MaxSockets = 8

// Kind discriminates trace events.
type Kind uint8

// Event kinds.
const (
	KindTxStart Kind = iota
	KindTxCommit
	KindTxAbort
	KindFallback
	KindWait
	KindCacheMiss
	KindCacheInval
	KindBreakerOpen
	KindBreakerClose
	KindBrownout
	NumKinds
)

// String returns the name of the event kind.
func (k Kind) String() string {
	switch k {
	case KindTxStart:
		return "tx-start"
	case KindTxCommit:
		return "tx-commit"
	case KindTxAbort:
		return "tx-abort"
	case KindFallback:
		return "fallback"
	case KindWait:
		return "wait"
	case KindCacheMiss:
		return "cache-miss"
	case KindCacheInval:
		return "cache-inval"
	case KindBreakerOpen:
		return "breaker-open"
	case KindBreakerClose:
		return "breaker-close"
	case KindBrownout:
		return "brownout"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record. At is the event's virtual timestamp; for
// events with a duration (commit, abort, fallback, wait) At is the
// *end* of the span and Dur its length, so the span starts at
// At.Add(-Dur).
type Event struct {
	Kind   Kind
	Code   Code // abort cause (KindTxAbort only)
	Hint   bool // hardware retry hint (KindTxAbort only)
	Remote bool // cross-socket (cache events only)
	Socket int8
	Slot   int16 // transaction slot / dense thread id (-1 if unknown)
	Lock   LockID
	At     vtime.Time
	Dur    vtime.Duration
	Read   int32 // read-set lines at commit
	Write  int32 // write-set lines at commit
}

// Recorder receives lifecycle events from the HTM substrate. All
// methods are invoked under the simulator's global serialization
// token, but implementations are written to also tolerate genuinely
// concurrent callers (the Collector uses sharded atomic counters), so
// recorders can be shared by tests that bypass the simulator.
type Recorder interface {
	// RegisterLock introduces a lock instance for per-lock attribution
	// and returns its id. Locks must be registered on the recorder
	// that will receive their events (i.e. set the recorder before
	// constructing locks).
	RegisterLock(name string) LockID

	// TxStart records the beginning of one transactional attempt.
	TxStart(at vtime.Time, slot, socket int, lock LockID)

	// TxCommit records a successful attempt: dur is the begin-to-commit
	// latency, readSet/writeSet the footprint in cache lines.
	TxCommit(at vtime.Time, slot, socket int, lock LockID, dur vtime.Duration, readSet, writeSet int)

	// TxAbort records a failed attempt: code/hint are the hardware
	// abort condition, dur the begin-to-abort latency.
	TxAbort(at vtime.Time, slot, socket int, lock LockID, code Code, hint bool, dur vtime.Duration)

	// Fallback records a critical section that acquired the fallback
	// lock, with the lock hold time.
	Fallback(at vtime.Time, slot, socket int, lock LockID, hold vtime.Duration)

	// Wait records time a thread spent blocked by an admission policy
	// (NATLE mode throttling) before entering the critical section.
	Wait(at vtime.Time, slot, socket int, lock LockID, dur vtime.Duration)

	// CacheMiss records an access served outside the requesting
	// socket's caches (remote cache-to-cache transfer, or DRAM; remote
	// reports whether it crossed the socket boundary).
	CacheMiss(at vtime.Time, socket int, remote bool)

	// CacheInval records a write that invalidated other copies
	// (remote reports whether a remote-socket copy was invalidated).
	CacheInval(at vtime.Time, socket int, remote bool)

	// Breaker records a circuit-breaker transition on a lock: open=true
	// when the windowed abort rate tripped it (HTM degraded to pure
	// mutual exclusion), open=false when a recovery probe committed and
	// restored elision.
	Breaker(at vtime.Time, slot, socket int, lock LockID, open bool)

	// Brownout records an overload-controller level transition on a
	// service shard (slot carries the shard index): from/to are
	// brownout levels — 0 is normal operation, higher levels shrink the
	// batch size and the highest downgrades the scheme to pure mutual
	// exclusion (see internal/service).
	Brownout(at vtime.Time, slot, socket int, from, to int)
}

// NopRecorder discards all events. Its methods are empty and
// non-virtual once devirtualized, so emitting layers pay only the
// interface call.
type NopRecorder struct{}

// Nop returns the shared no-op recorder.
func Nop() Recorder { return nopShared }

var nopShared Recorder = NopRecorder{}

// RegisterLock implements Recorder.
func (NopRecorder) RegisterLock(string) LockID { return NoLock }

// TxStart implements Recorder.
func (NopRecorder) TxStart(vtime.Time, int, int, LockID) {}

// TxCommit implements Recorder.
func (NopRecorder) TxCommit(vtime.Time, int, int, LockID, vtime.Duration, int, int) {}

// TxAbort implements Recorder.
func (NopRecorder) TxAbort(vtime.Time, int, int, LockID, Code, bool, vtime.Duration) {}

// Fallback implements Recorder.
func (NopRecorder) Fallback(vtime.Time, int, int, LockID, vtime.Duration) {}

// Wait implements Recorder.
func (NopRecorder) Wait(vtime.Time, int, int, LockID, vtime.Duration) {}

// CacheMiss implements Recorder.
func (NopRecorder) CacheMiss(vtime.Time, int, bool) {}

// CacheInval implements Recorder.
func (NopRecorder) CacheInval(vtime.Time, int, bool) {}

// Breaker implements Recorder.
func (NopRecorder) Breaker(vtime.Time, int, int, LockID, bool) {}

// Brownout implements Recorder.
func (NopRecorder) Brownout(vtime.Time, int, int, int, int) {}
