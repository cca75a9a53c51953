package service

import (
	"natle/internal/backend"
	"natle/internal/fault"
	"natle/internal/htm"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/simmap"
	"natle/internal/telemetry"
	"natle/internal/vtime"
)

// Run executes one service trial on the deterministic simulator and
// returns its measurements: a pure function of (Config, Seed), fault
// schedules included.
func Run(cfg Config) *Result { return newPipeline(backend.Sim, cfg).run(simHost) }

// simHost hosts the pipeline on a sim.Engine: the driver thread builds
// the shards and then dispatches, every server is a simulated thread,
// and the shard maps live in simulated memory.
func simHost(p *pipeline) {
	cfg := &p.cfg
	e := sim.New(cfg.Prof, cfg.Pin, cfg.Shards*cfg.Servers, cfg.Seed)
	sys := htm.NewSystem(e, cfg.MemWords)
	if cfg.Recorder != nil {
		// Installed before any locks exist so their RegisterLock calls
		// land in this recorder.
		sys.SetRecorder(cfg.Recorder)
	}
	var inj *fault.Fault
	if cfg.Fault != nil && cfg.Fault.Enabled() {
		inj = fault.New(*cfg.Fault, cfg.Seed)
		sys.SetInjector(inj)
	}
	e.Spawn(nil, func(c *sim.Ctx) {
		// Build the shards round-robin across sockets: shard i's buckets
		// and lock word are homed on socket i mod sockets, so cross-socket
		// traffic is part of the workload exactly as it would be for a
		// real NUMA-sharded store.
		seats := make([]simWorker, cfg.Shards)
		for i := range seats {
			socket := i % cfg.Prof.Sockets
			w := &seats[i]
			w.m = simmap.New(sys, c, cfg.LogBuckets, socket)
			w.cs = p.desc.New(sys, c, socket)
			p.addShard(socket, noLock{}, w.cs.Stats, w.m.RawEach)
		}
		for i, s := range p.shards {
			for j := 0; j < cfg.Servers; j++ {
				e.Spawn(c, func(wc *sim.Ctx) {
					w := seats[i]
					w.c = wc
					p.serve(w, s, nil)
				})
			}
		}
		// The dispatcher is an event source that does not contend for a
		// core with the shard servers.
		c.SetIdle(true)
		p.dispatch(simWorker{c: c})
		c.WaitOthers(vtime.Microsecond)
	})
	e.Run()
	p.res.HTM, p.res.Cache = sys.Stats, sys.Cache.Stats
	if col, ok := cfg.Recorder.(*telemetry.Collector); ok {
		sum := col.Summary()
		p.res.Telemetry = &sum
	}
	if inj != nil {
		p.res.Fault = inj.Stats
	}
}

type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

// simWorker is one simulated pipeline thread; the dispatcher's has no
// map and no scheme instance.
type simWorker struct {
	c  *sim.Ctx
	m  *simmap.Map // RawEach reads raw memory: no simulated events
	cs scheme.Instance
}

func (w simWorker) now() vtime.Time { return w.c.Now() }

// sleepUntil ignores yield: simulated servers poll at their own virtual
// times and never wait for a processor the dispatcher holds.
func (w simWorker) sleepUntil(t vtime.Time, _ bool) {
	if gap := t.Sub(w.c.Now()); gap > 0 {
		w.c.AdvanceIdle(gap)
		w.c.Checkpoint()
	}
}

func (w simWorker) work(n int)            { w.c.Work(n) }
func (w simWorker) apply(q Request)       { apply(w.m, w.c, q) }
func (w simWorker) critical(body func())  { w.cs.Critical(w.c, body) }
func (w simWorker) exclusive(body func()) { w.cs.Exclusive(w.c, body) }
func (w simWorker) wait(idle func() bool) { w.c.WaitUntil(serverPoll, idle) }
