package native

import (
	"reflect"
	"testing"

	"natle/internal/cacheline"
)

// TestCacheLineLayout: every word that many threads write owns its
// cache lines, and every padded type is whole lines, so an array or a
// back-to-back allocation of them shares none either. A hot field
// sharing a line makes each write invalidate the other field's readers:
// the false sharing the paper measures, added by the code that
// measures it.
func TestCacheLineLayout(t *testing.T) {
	for _, tc := range []struct {
		v     any
		lines int // exact size in lines; 0: any whole number
		hot   []string
	}{
		// seq is validated by every optimistic load.
		{TLE{}, 0, []string{"seq"}},
		// A thread's counters on a lock, written by their owner alone.
		{shard{}, 1, []string{"counters"}},
		// The owner writes rng, tx and sink on every operation; the
		// per-thread words the schemes keep here come out of the pad.
		{Thread{}, 2, nil},
		{NATLE{}, 0, []string{"windowStart", "decision", "throttle", "decider"}},
		{Mutex{}, 0, []string{"mu", "acquires"}},
		{Spin{}, 0, []string{"word", "acquires"}},
		// squeezeUntil is read by every optimistic attempt under faults.
		{faultHot{}, 0, []string{"squeezeUntil", "counters"}},
	} {
		typ := reflect.TypeOf(tc.v)
		t.Run(typ.Name(), func(t *testing.T) {
			for _, bad := range cacheline.Check(typ, tc.lines, tc.hot...) {
				t.Error(bad)
			}
		})
	}
}
