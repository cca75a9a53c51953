package simmap

import (
	"natle/internal/arena"
	"natle/internal/backend"
)

// BackendMap is the chained hash map over an arbitrary backend.World's
// words: the same generic cores as Map, with the bucket array in plain
// backend words and nodes carved from an arena lane keyed by the
// calling thread. On the native backend this is the KV service's shard
// store — real goroutines hashing into real atomic words.
type BackendMap struct {
	buckets uint64
	mask    uint64
	ar      *arena.Arena
}

// NewBackendMap allocates a map with 2^logBuckets buckets during
// setup; nodes come out of ar (size lanes for NodeWords() per insert).
func NewBackendMap(c backend.Ctx, ar *arena.Arena, logBuckets int) *BackendMap {
	n := 1 << logBuckets
	return &BackendMap{
		buckets: uint64(c.Alloc(n)),
		mask:    uint64(n - 1),
		ar:      ar,
	}
}

// NodeWords returns the arena words one insert consumes (the node is
// line-rounded by the allocator), for lane sizing.
func NodeWords() int { return arena.RoundLine(nWords) }

// Get returns the value stored under key.
func (m *BackendMap) Get(c backend.Ctx, key uint64) (uint64, bool) {
	return mapGet(arena.Bind(c, m.ar), m.buckets, m.mask, key)
}

// Put stores val under key, returning true if the key was already
// present (its value is overwritten).
func (m *BackendMap) Put(c backend.Ctx, key, val uint64) bool {
	return mapPut(arena.Bind(c, m.ar), m.buckets, m.mask, key, val)
}

// PutIfAbsent stores val under key only if absent; it reports whether
// the insert happened.
func (m *BackendMap) PutIfAbsent(c backend.Ctx, key, val uint64) bool {
	return mapPutIfAbsent(arena.Bind(c, m.ar), m.buckets, m.mask, key, val)
}

// Add increments the value under key by delta (inserting 0+delta if
// absent) and returns the new value.
func (m *BackendMap) Add(c backend.Ctx, key, delta uint64) uint64 {
	return mapAdd(arena.Bind(c, m.ar), m.buckets, m.mask, key, delta)
}

// Delete removes key, reporting whether it was present.
func (m *BackendMap) Delete(c backend.Ctx, key uint64) bool {
	return mapDelete(arena.Bind(c, m.ar), m.buckets, m.mask, key)
}

// PeekEach calls fn for every key/value pair on quiesced memory after
// World.Run returned (validation and checksums only).
func (m *BackendMap) PeekEach(w backend.World, fn func(key, val uint64)) {
	mapEach(arena.Peek{W: w}, m.buckets, m.mask, fn)
}
