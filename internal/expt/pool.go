package expt

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Map runs f over the index range [0, n) on a bounded worker pool and
// returns the results in index order — never completion order — so
// callers that print or compare results stay deterministic at any
// worker count. workers <= 0 selects GOMAXPROCS; a single worker (or
// n <= 1) degenerates to a plain sequential loop on the caller's
// goroutine.
//
// If an f call panics, workers stop claiming new indices, the pool
// drains, and Map re-panics on the caller's goroutine with the first
// captured panic (by claim order), mirroring what a sequential loop
// would have done. Callers that need per-item isolation instead of
// fail-fast semantics recover inside f (Plan.Execute does exactly
// that).
func Map[T any](workers, n int, f func(i int) T) []T {
	out := make([]T, n)
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = f(i)
		}
		return out
	}

	var failed atomic.Bool
	var panicMu sync.Mutex
	panicIdx := n
	var panicVal any
	forEachPooled(w, n, &failed, func(i int) {
		defer func() {
			if r := recover(); r != nil {
				failed.Store(true)
				panicMu.Lock()
				if i < panicIdx {
					panicIdx, panicVal = i, r
				}
				panicMu.Unlock()
			}
		}()
		out[i] = f(i)
	})
	if failed.Load() {
		panic(fmt.Sprintf("expt.Map: item %d panicked: %v", panicIdx, panicVal))
	}
	return out
}

// forEach runs f over [0, n) on a bounded pool and waits for all calls
// to finish. f must contain its own panics (Plan.Execute recovers per
// trial); an escaped panic here would crash the process, exactly as it
// would in a sequential loop.
func forEach(workers, n int, f func(i int)) {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	forEachPooled(w, n, nil, f)
}

// forEachPooled is the shared claim loop: w goroutines atomically
// claim ascending indices until the range is exhausted (or stop, when
// non-nil, becomes true).
func forEachPooled(w, n int, stop *atomic.Bool, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop == nil || !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
