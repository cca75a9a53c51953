// Package txn is the txnsafe analyzer fixture. It imports the real
// htm and tle packages (resolved through the module's export data) so
// the matcher is exercised against the true Try/Critical signatures.
package txn

import (
	"natle/internal/htm"
	"natle/internal/sim"
	"natle/internal/tle"
)

func unsafeBody(sys *htm.System, c *sim.Ctx, ch chan int) {
	sys.Try(c, func() {
		go work()      // want `go statement`
		ch <- 1        // want `channel send`
		<-ch           // want `channel receive`
		close(ch)      // want `close of a channel`
		select {}      // want `select`
		for range ch { // want `range over a channel`
			work()
		}
	})
}

func unsafeCritical(l *tle.Lock, c *sim.Ctx, done chan struct{}) {
	l.Critical(c, func() {
		done <- struct{}{} // want `channel send`
	})
}

func safeBody(sys *htm.System, c *sim.Ctx) {
	sys.Try(c, func() {
		work()
		for i := 0; i < 3; i++ {
			work()
		}
	})
}

// outsideBody shows the same operations are legal outside transaction
// bodies: the analyzer legislates only the abortable region.
func outsideBody(ch chan int) {
	go work()
	ch <- 1
	close(ch)
}

func work() {}
