package telemetry

import (
	"sync"
	"sync/atomic"

	"natle/internal/vtime"
)

// Config tunes a Collector.
type Config struct {
	// Shards is the shard count of the event counters (default 16;
	// writers shard by transaction slot).
	Shards int

	// TraceCap, when positive, enables the ring-buffer event trace
	// holding the most recent TraceCap events (see WriteChromeTrace).
	TraceCap int

	// TraceCache includes cache miss/invalidation events in the ring
	// trace. They are always counted; buffering them is off by default
	// because each simulated memory access can emit one, which would
	// evict the transaction timeline from a bounded ring.
	TraceCache bool
}

// Collector is the aggregating Recorder: sharded counters by event
// kind and abort cause, a per-lock × per-socket attribution matrix,
// duration histograms, and an optional bounded event trace.
type Collector struct {
	commitLat    Histogram // begin→commit latency
	abortLat     Histogram // begin→abort latency
	abortGap     Histogram // abort→next-attempt gap (per slot)
	fallbackHold Histogram // fallback lock hold time
	waitTime     Histogram // admission-throttle waits

	// lastAbort tracks, per slot, the end time of the last abort (+1
	// so the zero value means "none"), to derive the abort-to-retry
	// gap without a dedicated event.
	lastAbort [1 << 10]atomic.Int64

	cfg Config

	kinds   [NumKinds]*ShardedCounter
	aborts  [NumCodes]*ShardedCounter
	hintSet *ShardedCounter // aborts with the retry hint set

	remoteMiss  *ShardedCounter
	remoteInval *ShardedCounter

	mu     sync.Mutex   // guards lock registration
	blocks atomic.Value // []*lockBlock, index = LockID

	ring *Ring
}

// Per-lock, per-socket counter cells.
const (
	cellStarts = iota
	cellCommits
	cellFallbacks
	cellWaits
	cellAborts     // NumCodes consecutive cells
	lockCellStride = cellAborts + int(NumCodes)
)

// socketCells is one socket's attribution cells, padded out to whole
// cache lines: threads on different sockets bump their own block, so
// adjacent sockets must not share a line (the stride is 9 words, which
// would otherwise overlap neighbours and turn the attribution matrix
// itself into a false-sharing hotspot the native backend measures).
type socketCells struct {
	cells [lockCellStride]atomic.Uint64
	_     [128 - 8*lockCellStride]byte
}

type lockBlock struct {
	// name is read-only after registration; the pad keeps the hot
	// per-socket cells off its line.
	name string
	_    [48]byte

	socks [MaxSockets]socketCells
}

// NewCollector creates a collector with the given config.
func NewCollector(cfg Config) *Collector {
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	c := &Collector{cfg: cfg}
	for i := range c.kinds {
		c.kinds[i] = NewShardedCounter(cfg.Shards)
	}
	for i := range c.aborts {
		c.aborts[i] = NewShardedCounter(cfg.Shards)
	}
	c.hintSet = NewShardedCounter(cfg.Shards)
	c.remoteMiss = NewShardedCounter(cfg.Shards)
	c.remoteInval = NewShardedCounter(cfg.Shards)
	// Lock id 0 is the unattributed bucket (raw transactions).
	c.blocks.Store([]*lockBlock{{name: "(none)"}})
	if cfg.TraceCap > 0 {
		c.ring = NewRing(cfg.TraceCap)
	}
	return c
}

// Default returns a collector with default sharding and no trace.
func Default() *Collector { return NewCollector(Config{}) }

// --- Recorder implementation ---

// RegisterLock implements Recorder.
func (c *Collector) RegisterLock(name string) LockID {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.blocks.Load().([]*lockBlock)
	id := LockID(len(old))
	next := make([]*lockBlock, len(old)+1)
	copy(next, old)
	next[id] = &lockBlock{name: name}
	c.blocks.Store(next)
	return id
}

func (c *Collector) lockCell(lock LockID, socket, cell int) *atomic.Uint64 {
	blocks := c.blocks.Load().([]*lockBlock)
	if int(lock) >= len(blocks) || lock < 0 {
		lock = NoLock
	}
	if socket < 0 || socket >= MaxSockets {
		socket = 0
	}
	return &blocks[lock].socks[socket].cells[cell]
}

func (c *Collector) trace(e Event) {
	if c.ring != nil {
		c.ring.Append(e)
	}
}

// TxStart implements Recorder.
func (c *Collector) TxStart(at vtime.Time, slot, socket int, lock LockID) {
	c.kinds[KindTxStart].Add(slot, 1)
	c.lockCell(lock, socket, cellStarts).Add(1)
	if la := c.lastAbort[uint(slot)%uint(len(c.lastAbort))].Swap(0); la != 0 {
		c.abortGap.Observe(at.Sub(vtime.Time(la - 1)))
	}
	c.trace(Event{Kind: KindTxStart, At: at, Slot: int16(slot), Socket: int8(socket), Lock: lock})
}

// TxCommit implements Recorder.
func (c *Collector) TxCommit(at vtime.Time, slot, socket int, lock LockID, dur vtime.Duration, readSet, writeSet int) {
	c.kinds[KindTxCommit].Add(slot, 1)
	c.lockCell(lock, socket, cellCommits).Add(1)
	c.commitLat.Observe(dur)
	c.trace(Event{Kind: KindTxCommit, At: at, Slot: int16(slot), Socket: int8(socket),
		Lock: lock, Dur: dur, Read: int32(readSet), Write: int32(writeSet)})
}

// TxAbort implements Recorder.
func (c *Collector) TxAbort(at vtime.Time, slot, socket int, lock LockID, code Code, hint bool, dur vtime.Duration) {
	c.kinds[KindTxAbort].Add(slot, 1)
	if code < NumCodes {
		c.aborts[code].Add(slot, 1)
	}
	if hint {
		c.hintSet.Add(slot, 1)
	}
	c.lockCell(lock, socket, cellAborts+int(code)).Add(1)
	c.abortLat.Observe(dur)
	c.lastAbort[uint(slot)%uint(len(c.lastAbort))].Store(int64(at) + 1)
	c.trace(Event{Kind: KindTxAbort, At: at, Slot: int16(slot), Socket: int8(socket),
		Lock: lock, Code: code, Hint: hint, Dur: dur})
}

// Fallback implements Recorder.
func (c *Collector) Fallback(at vtime.Time, slot, socket int, lock LockID, hold vtime.Duration) {
	c.kinds[KindFallback].Add(slot, 1)
	c.lockCell(lock, socket, cellFallbacks).Add(1)
	c.fallbackHold.Observe(hold)
	// The retry loop ended in a fallback, not a retry: drop the gap.
	c.lastAbort[uint(slot)%uint(len(c.lastAbort))].Store(0)
	c.trace(Event{Kind: KindFallback, At: at, Slot: int16(slot), Socket: int8(socket),
		Lock: lock, Dur: hold})
}

// Wait implements Recorder.
func (c *Collector) Wait(at vtime.Time, slot, socket int, lock LockID, dur vtime.Duration) {
	c.kinds[KindWait].Add(slot, 1)
	c.lockCell(lock, socket, cellWaits).Add(1)
	c.waitTime.Observe(dur)
	c.trace(Event{Kind: KindWait, At: at, Slot: int16(slot), Socket: int8(socket),
		Lock: lock, Dur: dur})
}

// CacheMiss implements Recorder.
func (c *Collector) CacheMiss(at vtime.Time, socket int, remote bool) {
	c.kinds[KindCacheMiss].Add(socket, 1)
	if remote {
		c.remoteMiss.Add(socket, 1)
	}
	if c.cfg.TraceCache {
		c.trace(Event{Kind: KindCacheMiss, At: at, Slot: -1, Socket: int8(socket), Remote: remote})
	}
}

// Breaker implements Recorder.
func (c *Collector) Breaker(at vtime.Time, slot, socket int, lock LockID, open bool) {
	k := KindBreakerClose
	if open {
		k = KindBreakerOpen
	}
	c.kinds[k].Add(slot, 1)
	c.trace(Event{Kind: k, At: at, Slot: int16(slot), Socket: int8(socket), Lock: lock})
}

// Brownout implements Recorder. Read/Write carry the from/to levels so
// the trace records the direction of the transition.
func (c *Collector) Brownout(at vtime.Time, slot, socket int, from, to int) {
	c.kinds[KindBrownout].Add(slot, 1)
	c.trace(Event{Kind: KindBrownout, At: at, Slot: int16(slot), Socket: int8(socket),
		Read: int32(from), Write: int32(to)})
}

// CacheInval implements Recorder.
func (c *Collector) CacheInval(at vtime.Time, socket int, remote bool) {
	c.kinds[KindCacheInval].Add(socket, 1)
	if remote {
		c.remoteInval.Add(socket, 1)
	}
	if c.cfg.TraceCache {
		c.trace(Event{Kind: KindCacheInval, At: at, Slot: -1, Socket: int8(socket), Remote: remote})
	}
}

// --- queries ---

// Count returns the number of recorded events of one kind.
func (c *Collector) Count(k Kind) uint64 {
	if k >= NumKinds {
		return 0
	}
	return c.kinds[k].Load()
}

// Starts returns the number of transactional attempts.
func (c *Collector) Starts() uint64 { return c.Count(KindTxStart) }

// Commits returns the number of committed attempts.
func (c *Collector) Commits() uint64 { return c.Count(KindTxCommit) }

// Fallbacks returns the number of fallback acquisitions.
func (c *Collector) Fallbacks() uint64 { return c.Count(KindFallback) }

// Waits returns the number of admission-throttle waits.
func (c *Collector) Waits() uint64 { return c.Count(KindWait) }

// Aborts returns the abort count for one cause.
func (c *Collector) Aborts(code Code) uint64 {
	if code >= NumCodes {
		return 0
	}
	return c.aborts[code].Load()
}

// TotalAborts sums aborts over all causes.
func (c *Collector) TotalAborts() uint64 {
	var n uint64
	for i := range c.aborts {
		n += c.aborts[i].Load()
	}
	return n
}

// HintSetAborts returns aborts that carried the hardware retry hint.
func (c *Collector) HintSetAborts() uint64 { return c.hintSet.Load() }

// AbortRate returns aborted / started attempts (0 when nothing ran).
func (c *Collector) AbortRate() float64 {
	starts := c.Starts()
	if starts == 0 {
		return 0
	}
	return float64(c.TotalAborts()) / float64(starts)
}

// CommitDurTotal returns the summed begin→commit latency, matching
// htm.Stats.CommitDurTotal exactly.
func (c *Collector) CommitDurTotal() vtime.Duration {
	return vtime.Duration(c.commitLat.Snapshot().SumPs)
}

// RemoteCacheMisses returns cross-socket misses (of CacheMisses).
func (c *Collector) RemoteCacheMisses() uint64 { return c.remoteMiss.Load() }

// RemoteCacheInvals returns cross-socket invalidations (of CacheInvals).
func (c *Collector) RemoteCacheInvals() uint64 { return c.remoteInval.Load() }

// CommitLatency returns the begin→commit latency histogram.
func (c *Collector) CommitLatency() HistogramSnapshot { return c.commitLat.Snapshot() }

// AbortLatency returns the begin→abort latency histogram.
func (c *Collector) AbortLatency() HistogramSnapshot { return c.abortLat.Snapshot() }

// AbortGap returns the abort→next-attempt gap histogram.
func (c *Collector) AbortGap() HistogramSnapshot { return c.abortGap.Snapshot() }

// FallbackHold returns the fallback lock hold-time histogram.
func (c *Collector) FallbackHold() HistogramSnapshot { return c.fallbackHold.Snapshot() }

// WaitTime returns the admission-throttle wait histogram.
func (c *Collector) WaitTime() HistogramSnapshot { return c.waitTime.Snapshot() }

// LockCell is the per-lock, per-socket attribution record.
type LockCell struct {
	Starts    uint64
	Commits   uint64
	Fallbacks uint64
	Waits     uint64
	Aborts    [NumCodes]uint64
}

// Sub returns the windowed delta a - b.
func (a LockCell) Sub(b LockCell) LockCell { return Sub(a, b) }

// LockSummary is one lock's attribution matrix.
type LockSummary struct {
	ID        LockID
	Name      string
	PerSocket [MaxSockets]LockCell
}

// Total merges the per-socket cells.
func (l LockSummary) Total() LockCell {
	var t LockCell
	for _, c := range l.PerSocket {
		t.Starts += c.Starts
		t.Commits += c.Commits
		t.Fallbacks += c.Fallbacks
		t.Waits += c.Waits
		for i := range t.Aborts {
			t.Aborts[i] += c.Aborts[i]
		}
	}
	return t
}

// Locks returns the attribution matrix for every registered lock
// (index 0 is the unattributed bucket).
func (c *Collector) Locks() []LockSummary {
	blocks := c.blocks.Load().([]*lockBlock)
	out := make([]LockSummary, len(blocks))
	for id, b := range blocks {
		s := LockSummary{ID: LockID(id), Name: b.name}
		for sock := 0; sock < MaxSockets; sock++ {
			sc := &b.socks[sock]
			cell := &s.PerSocket[sock]
			cell.Starts = sc.cells[cellStarts].Load()
			cell.Commits = sc.cells[cellCommits].Load()
			cell.Fallbacks = sc.cells[cellFallbacks].Load()
			cell.Waits = sc.cells[cellWaits].Load()
			for code := 0; code < int(NumCodes); code++ {
				cell.Aborts[code] = sc.cells[cellAborts+code].Load()
			}
		}
		out[id] = s
	}
	return out
}

// LockName returns the registered name of a lock id.
func (c *Collector) LockName(id LockID) string {
	blocks := c.blocks.Load().([]*lockBlock)
	if id < 0 || int(id) >= len(blocks) {
		return "(none)"
	}
	return blocks[id].name
}

// Events returns the buffered trace oldest-first (nil without a trace).
func (c *Collector) Events() []Event {
	if c.ring == nil {
		return nil
	}
	return c.ring.Events()
}

// TraceDropped returns how many trace events were overwritten.
func (c *Collector) TraceDropped() uint64 {
	if c.ring == nil {
		return 0
	}
	return c.ring.Dropped()
}
