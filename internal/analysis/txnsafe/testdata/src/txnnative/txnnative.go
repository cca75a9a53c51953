// Package txnnative is the backend-gating fixture: the package-level
// directive below declares it a native-backend package, so operations
// that would be abort-unsafe in simulated transaction bodies (see the
// txn fixture, which stays strict) must produce no diagnostics here.
// There are deliberately no want comments in this file.
//
//natlevet:backend native
package txnnative

import (
	"natle/internal/sim"
	"natle/internal/tle"
)

func nativeStyleBody(l *tle.Lock, c *sim.Ctx, ch chan int) {
	l.Critical(c, func() {
		go func() { ch <- 1 }()
		<-ch
	})
}
