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
func Run(cfg Config) *Result {
	h := &simHost{}
	res := newPipeline(backend.Sim, cfg).run(h)
	res.HTM = h.sys.Stats
	res.Cache = h.sys.Cache.Stats
	if col, ok := cfg.Recorder.(*telemetry.Collector); ok {
		sum := col.Summary()
		res.Telemetry = &sum
	}
	if h.inj != nil {
		res.Fault = h.inj.Stats
	}
	return res
}

// simHost hosts the pipeline on a sim.Engine: the driver thread builds
// the shards and then dispatches, every server is a simulated thread,
// and the shard maps live in simulated memory.
type simHost struct {
	sys *htm.System
	inj *fault.Fault
}

func (h *simHost) run(p *pipeline) {
	cfg := &p.cfg
	e := sim.New(cfg.Prof, cfg.Pin, cfg.Shards*cfg.Servers, cfg.Seed)
	h.sys = htm.NewSystem(e, cfg.MemWords)
	if cfg.Recorder != nil {
		// Installed before any locks exist so their RegisterLock calls
		// land in this recorder.
		h.sys.SetRecorder(cfg.Recorder)
	}
	if cfg.Fault != nil && cfg.Fault.Enabled() {
		h.inj = fault.New(*cfg.Fault, cfg.Seed)
		h.sys.SetInjector(h.inj)
	}
	var degDesc *scheme.Descriptor
	if cfg.Brownout != nil || cfg.RetryBudget > 0 {
		var err error
		if degDesc, err = scheme.MutexFor(backend.Sim); err != nil {
			panic("service: " + err.Error())
		}
	}
	e.Spawn(nil, func(c *sim.Ctx) {
		// Build the shards round-robin across sockets: shard i's buckets
		// and lock word are homed on socket i mod sockets, so cross-socket
		// traffic is part of the workload exactly as it would be for a
		// real NUMA-sharded store.
		for i := range p.shards {
			socket := i % cfg.Prof.Sockets
			st := &simStore{
				m:  simmap.New(h.sys, c, cfg.LogBuckets, socket),
				cs: p.desc.New(h.sys, c, socket),
			}
			if degDesc != nil {
				st.deg = degDesc.New(h.sys, c, socket)
			}
			p.addShard(i, socket, st)
		}
		for _, s := range p.shards {
			for j := 0; j < cfg.Servers; j++ {
				e.Spawn(c, func(w *sim.Ctx) { p.serve(simWorker{w, s.store.(*simStore)}, s) })
			}
		}
		// The dispatcher is an event source that does not contend for a
		// core with the shard servers.
		c.SetIdle(true)
		p.dispatch(simWorker{c: c})
		c.WaitOthers(vtime.Microsecond)
	})
	e.Run()
}

// simStore is one simulated shard. Execution is serialized by the
// simulator, so its lock and wake-up do nothing.
type simStore struct {
	m   *simmap.Map
	cs  scheme.Instance
	deg scheme.Instance // mutual-exclusion downgrade instance
}

func (*simStore) Lock()     {}
func (*simStore) Unlock()   {}
func (*simStore) wake(bool) {}

func (s *simStore) syncStats() scheme.Stats { return s.cs.Stats() }

// each reads raw memory: no simulated events, so traces (and the pinned
// snapshots) are unaffected.
func (s *simStore) each(fn func(key, val uint64)) { s.m.RawEach(fn) }

// simWorker is one simulated pipeline thread (the store is nil for the
// dispatcher).
type simWorker struct {
	c *sim.Ctx
	*simStore
}

func (w simWorker) now() vtime.Time { return w.c.Now() }

func (w simWorker) sleepUntil(t vtime.Time) {
	if gap := t.Sub(w.c.Now()); gap > 0 {
		w.c.AdvanceIdle(gap)
		w.c.Checkpoint()
	}
}

func (w simWorker) work(n int)            { w.c.Work(n) }
func (w simWorker) apply(q Request)       { apply(w.m, w.c, q) }
func (w simWorker) critical(body func())  { w.cs.Critical(w.c, body) }
func (w simWorker) exclusive(body func()) { w.deg.Critical(w.c, body) }
func (w simWorker) wait(idle func() bool) { w.c.WaitUntil(serverPoll, idle) }
