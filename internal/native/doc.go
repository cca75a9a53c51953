// Package native is the real-execution backend: schemes run on real
// goroutines over real memory (an array of atomic.Uint64 words) with
// wall-clock time. Where the simulated backend *predicts* multi-socket
// HTM behaviour as a pure function of (profile, seed), this backend
// *proves* numbers on the host it runs on — at the price of being
// host- and load-dependent, which is why its measurements never feed
// the deterministic figure pipeline.
//
// The schemes are software best-effort transactions in the style of
// production Go optimistic concurrency control (see PAPERS.md, "OCC
// for Real-world Go Programs"):
//
//   - native-mutex: sync.Mutex, never elided (the plain-lock baseline);
//   - native-spin: test-and-test-and-set spinlock over an atomic word;
//   - native-tle: transactional-mutex-style lock elision — a per-lock
//     sequence word; read-only sections run optimistically and
//     validate the sequence on every load, the first store upgrades to
//     writer with a CAS on the sequence; aborted attempts retry under
//     the repo's capped full-jitter backoff and fall back to exclusive
//     sequence-lock acquisition when attempts run out;
//   - native-natle: native-tle plus per-lock throttling in the spirit
//     of the paper's NATLE, driven by a wall-clock EWMA of per-group
//     commit throughput instead of virtual-time profiling cycles.
//
// All shared accesses go through sync/atomic, so every scheme is
// race-detector clean; optimistic readers discard torn higher-level
// state through sequence validation, exactly like a seqlock.
//
// No lock may be taken inside the seqlock read section (TLE.try): a
// reader blocked there would deadlock against a writer holding the
// sequence (TestSeqlockReadSectionTakesNoLock).
package native
