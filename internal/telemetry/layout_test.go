package telemetry

import (
	"reflect"
	"testing"

	"natle/internal/cacheline"
)

// TestCacheLineLayout: threads on different sockets bump their own
// attribution cells, so adjacent sockets' cells and a lock's name must
// not share a line (see package native's test of the same name).
func TestCacheLineLayout(t *testing.T) {
	for _, tc := range []struct {
		v     any
		lines int // exact size in lines; 0: any whole number
		hot   []string
	}{
		{socketCells{}, 2, []string{"cells"}},
		{lockBlock{}, 0, []string{"socks"}},
	} {
		typ := reflect.TypeOf(tc.v)
		t.Run(typ.Name(), func(t *testing.T) {
			for _, bad := range cacheline.Check(typ, tc.lines, tc.hot...) {
				t.Error(bad)
			}
		})
	}
}
