package native

import (
	"sync"
	"sync/atomic"

	"natle/internal/backend"
	"natle/internal/scheme"
)

// Mutex is the native plain-lock baseline: a sync.Mutex, never
// elided.
type Mutex struct {
	// The lock word all waiters spin in the kernel on and the
	// release-side acquisition counter each own a line: the counter
	// bump on unlock must not invalidate the word being acquired.
	mu sync.Mutex
	_  [56]byte

	acquires atomic.Uint64
	_        [56]byte
}

// NewMutex builds a native-mutex instance.
func NewMutex() *Mutex { return &Mutex{} }

// Critical implements scheme.BackendInstance.
func (m *Mutex) Critical(bc backend.Ctx, body func()) {
	c := bc.(*Thread)
	m.mu.Lock()
	// Deferred so a panicking body still releases the lock.
	defer func() {
		m.mu.Unlock()
		m.acquires.Add(1)
	}()
	if inj := c.w.inj; inj != nil {
		inj.csStall(c)
	}
	body()
}

// Exclusive implements scheme.BackendInstance: the mutex is never elided.
func (m *Mutex) Exclusive(c backend.Ctx, body func()) { m.Critical(c, body) }

// Name implements scheme.BackendInstance.
func (m *Mutex) Name() string { return "native-mutex" }

// Stats implements scheme.BackendInstance. Lock baselines have no
// elision counters; acquisitions ride in Extra.
func (m *Mutex) Stats() scheme.Stats {
	return scheme.Stats{Extra: map[string]uint64{"acquires": m.acquires.Load()}}
}

// Spin is a test-and-test-and-set spinlock over one atomic word, the
// native mirror of the simulated "lock" scheme.
type Spin struct {
	// Waiters poll word in the test-and-test-and-set read loop; the
	// acquisition counter lives on its own line so a release-side bump
	// does not kick every spinner's cached copy.
	word atomic.Uint32
	_    [60]byte

	acquires atomic.Uint64
	_        [56]byte
}

// NewSpin builds a native-spin instance.
func NewSpin() *Spin { return &Spin{} }

// Critical implements scheme.BackendInstance.
func (s *Spin) Critical(bc backend.Ctx, body func()) {
	c := bc.(*Thread)
	for {
		if s.word.Load() == 0 && s.word.CompareAndSwap(0, 1) {
			break
		}
		// Test-and-test-and-set: spin on the read path, with a short
		// pause so the owner's release is not drowned in CAS traffic.
		c.spinWait(int64(40 + c.Intn(40)))
	}
	// Deferred so a panicking body still releases the lock.
	defer func() {
		s.word.Store(0)
		s.acquires.Add(1)
	}()
	if inj := c.w.inj; inj != nil {
		inj.csStall(c)
	}
	body()
}

// Exclusive implements scheme.BackendInstance: the lock is never elided.
func (s *Spin) Exclusive(c backend.Ctx, body func()) { s.Critical(c, body) }

// Name implements scheme.BackendInstance.
func (s *Spin) Name() string { return "native-spin" }

// Stats implements scheme.BackendInstance.
func (s *Spin) Stats() scheme.Stats {
	return scheme.Stats{Extra: map[string]uint64{"acquires": s.acquires.Load()}}
}
