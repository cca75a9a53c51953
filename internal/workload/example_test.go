package workload_test

import (
	"fmt"

	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/sets"
	"natle/internal/sim"
	"natle/internal/tle"
	"natle/internal/vtime"
	"natle/internal/workload"
)

// ExampleRun runs one microbenchmark trial and reports whether
// transactions were elided.
func ExampleRun() {
	r := workload.Run(workload.Config{
		Prof:      machine.SmallI7(),
		Threads:   4,
		Seed:      1,
		KeyRange:  256,
		UpdatePct: 50,
		Duration:  100 * vtime.Microsecond,
		Warmup:    50 * vtime.Microsecond,
	})
	fmt.Println("elided:", r.HTM.Commits > 0, "fallbacks-bounded:", r.Sync.TLE.Fallbacks < r.Sync.TLE.Ops)
	// Output: elided: true fallbacks-bounded: true
}

// Example_simulation builds by hand what Run builds for a trial: a
// machine, its HTM runtime, a TLE lock and an AVL tree in simulated
// memory, and simulated threads running critical sections against
// them. The simulator is deterministic, so the output is stable.
func Example_simulation() {
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 2, 1)
	sys := htm.NewSystem(e, 1<<20)
	var size int
	e.Spawn(nil, func(c *sim.Ctx) {
		lock := tle.New(sys, c, 0, tle.TLE20())
		// New fails only on an unknown kind.
		set, _ := sets.New(sets.KindAVL, sys, c)
		for i := 0; i < 2; i++ {
			base := int64(i * 100)
			e.Spawn(c, func(w *sim.Ctx) {
				for k := int64(0); k < 50; k++ {
					lock.Critical(w, func() { set.Insert(w, base+k) })
				}
			})
		}
		c.SetIdle(true)
		c.WaitOthers(vtime.Microsecond)
		size = len(set.Keys())
	})
	e.Run()
	fmt.Println("keys:", size)
	// Output: keys: 100
}
