package harness

import (
	"natle/internal/delegation"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/sets"
	"natle/internal/sim"
	"natle/internal/vtime"
)

// avlExec adapts an AVL tree to the delegation executor interface.
type avlExec struct {
	set *sets.Set
}

// Execute implements delegation.Executor.
func (x avlExec) Execute(c *sim.Ctx, code int, key int64) bool {
	switch code {
	case delegation.OpInsert:
		return x.set.Insert(c, key)
	case delegation.OpDelete:
		return x.set.Delete(c, key)
	default:
		return x.set.Contains(c, key)
	}
}

// RunDelegation measures the Section 4.1 delegation baseline: one
// server per socket owns half the key range [0,2048) as a socket-local
// AVL tree; the remaining threads are clients issuing 100%-update
// operations in batches of the given size. It returns operations per
// virtual second over the measured window.
func RunDelegation(sc Scale, threads, batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	if batch > delegation.MaxBatch {
		batch = delegation.MaxBatch
	}
	const keyRange = 2048
	p := machine.LargeX52()
	e := sim.New(p, machine.FillSocketFirst{}, threads, sc.Seed)
	sys := htm.NewSystem(e, 1<<20)
	nClients := threads - p.Sockets
	if nClients < 1 {
		nClients = 1
	}
	var ops uint64
	dur := sc.Dur

	e.Spawn(nil, func(c *sim.Ctx) {
		stop := false
		chans := make([]*delegation.Channel, p.Sockets)
		for s := 0; s < p.Sockets; s++ {
			s := s
			chans[s] = delegation.NewChannel(sys, c, nClients, s)
			// The server's half lives in a socket-local tree.
			// New fails only on an unknown kind.
			tree, _ := sets.New(sets.KindAVL, sys, c)
			lo := int64(s) * keyRange / int64(p.Sockets)
			hi := int64(s+1) * keyRange / int64(p.Sockets)
			// Prefill half the keys of this server's subrange.
			for k := lo; k < hi; k += 2 {
				tree.Insert(c, k)
			}
			// Servers occupy the last core of their socket to keep the
			// policy-placed clients off them at low thread counts.
			core := (s+1)*p.CoresPerSocket - 1
			e.SpawnOn(c, core, func(w *sim.Ctx) {
				exec := avlExec{set: tree}
				for !stop {
					if !chans[s].Serve(w, exec) {
						w.AdvanceIdle(200 * vtime.Nanosecond)
						w.Yield()
					}
				}
			})
		}
		var measureStart, deadline vtime.Time
		start := e.SpawnTeam(c, nClients, func(i int, w *sim.Ctx) {
			var counted uint64
			batches := make([][]delegation.Op, p.Sockets)
			for {
				opStart := w.Now()
				if opStart >= deadline {
					break
				}
				// Generate a batch, routed per socket by key half.
				for s := range batches {
					batches[s] = batches[s][:0]
				}
				for b := 0; b < batch; b++ {
					key := int64(w.Rand64() % keyRange)
					code := delegation.OpInsert
					if w.Rand64()&1 == 0 {
						code = delegation.OpDelete
					}
					s := int(key * int64(p.Sockets) / keyRange)
					batches[s] = append(batches[s], delegation.MakeOp(code, key))
				}
				for s, ob := range batches {
					if len(ob) > 0 {
						chans[s].Submit(w, i, ob)
					}
				}
				if opStart >= measureStart && w.Now() <= deadline {
					counted += uint64(batch)
				}
			}
			ops += counted
		})
		measureStart = start.Add(sc.Warmup)
		deadline = measureStart.Add(dur)
		c.SetIdle(true)
		// Wait for the clients (servers spin until stop).
		c.WaitUntil(2*vtime.Microsecond, func() bool { return e.Live() <= 1+p.Sockets })
		stop = true
		c.WaitOthers(2 * vtime.Microsecond)
	})
	e.Run()
	return float64(ops) / dur.Seconds()
}
