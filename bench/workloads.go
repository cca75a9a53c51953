package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"time"

	"natle/internal/backend"
	"natle/internal/harness"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/native"
	"natle/internal/scheme"
	"natle/internal/service"
	"natle/internal/sets"
	"natle/internal/vtime"
	"natle/internal/workload"
)

// nativeWorkers is the OS-level worker count of every native trial and
// the number of CPUs a native workload needs to mean anything.
const nativeWorkers = 2

// sloTargetUs is the repo's service SLO target (harness.QuickScale's
// ServiceSLO.Target), the limit sustained_rps is searched against.
const sloTargetUs = 1000

// env is what one benchmark process carries through its trials.
type env struct {
	host  host
	seed  int64
	quick bool      // tiny sizes for the structure test
	allPs bool      // leave GOMAXPROCS alone on the sim workloads (see onePForSim)
	check bool      // verify outputs (on by default)
	tr    *tracer   // nil = tracing off
	out   io.Writer // human-readable lines
}

// report accumulates the output checks of a run.
type report struct {
	attempted uint64
	failed    uint64
	problems  []string
}

// fail records a violated check and counts ops operations as failed.
func (r *report) fail(ops uint64, format string, a ...any) {
	r.failed += ops
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// part is one independently timed call of a trial: the whole trial on
// the sim workloads, one scheme's or one rung's share on the native ones.
type part struct {
	ops  uint64  // work completed: simulated ops, native ops or completed requests
	wall float64 // host seconds the timed phase took
}

// trialResult is what one trial (one rep) of a workload yields.
type trialResult struct {
	parts []part
	layer map[string]float64 // per-layer metrics read off this trial's Results
	info  map[string]float64 // per-trial detail worth a line in the human output
}

func (t trialResult) ops() (n uint64) {
	for _, p := range t.parts {
		n += p.ops
	}
	return n
}

// throughput is the trial's work per host second of its timed phases.
func (t trialResult) throughput() float64 {
	var wall float64
	for _, p := range t.parts {
		wall += p.wall
	}
	return ratio(float64(t.ops()), wall)
}

// runner is one workload. setup performs one complete set-up from the
// seed (inputs, worlds, schedules, prefill, thread spawn, teardown)
// without any measured work and returns the host time it took, the
// benchmark's own collections between worlds left out; trial runs one
// measured rep and checks it.
type runner interface {
	setup(e *env) time.Duration
	trial(e *env, rep *report) trialResult
}

func newRunner(name string, e *env) (runner, error) {
	switch name {
	case "sim-sets":
		return &simSets{}, nil
	case "sim-service":
		return &simService{}, nil
	case "native-sets":
		ops := 400_000
		if e.quick {
			ops = 2000
		}
		return &nativeLoop{wl: workload.BackendSets, ops: ops, schemes: resolveSchemeNames(e.out, nativeSchemes)}, nil
	case "native-counter":
		ops := 1_500_000
		if e.quick {
			ops = 5000
		}
		return &nativeLoop{wl: workload.BackendCounter, ops: ops, schemes: resolveSchemeNames(e.out, nativeSchemes)}, nil
	case "native-service":
		if _, err := scheme.LookupFor(backend.Native, nativeServiceScheme); err != nil {
			return nil, fmt.Errorf("%s not registered", nativeServiceScheme)
		}
		return &nativeService{words: map[string]int{}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func isNative(name string) bool {
	return name == "native-sets" || name == "native-counter" || name == "native-service"
}

// onePForSim runs the simulator on one P until the returned function
// is called. The engine passes one token between its goroutines, so
// only one of them ever runs; with a second P free, the Go scheduler
// wakes some of them up over there, and every such handoff is a futex
// wake-up of a halted vCPU. On the 2-vCPU reference host that made
// sim-sets a third slower, doubled its CPU time per op, and let it swing
// between the two speeds for minutes at a time, whichever way the
// scheduler happened to settle. sim.gomaxprocs_slowdown of the traced
// run keeps the price of the default in view.
func (e *env) onePForSim() (restore func()) {
	if e.allPs {
		return func() {}
	}
	old := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(old) }
}

// ---- sim-sets ---------------------------------------------------------

// simSets is the quick-scale Fig 12 cell: the paper's headline
// experiment at full thread count.
type simSets struct {
	ref *workload.Result // first trial, the determinism reference
}

func (s *simSets) config(e *env) workload.Config {
	q := harness.QuickScale()
	n := q.NATLE
	cfg := workload.Config{
		Prof: machine.LargeX52(), Pin: machine.FillSocketFirst{},
		Threads: 72, Seed: e.seed,
		SetKind: sets.KindAVL, KeyRange: 2048, UpdatePct: 100,
		Lock: workload.LockNATLE, NATLE: &n,
		Warmup: q.NATLEWarmup, Duration: q.NATLEDur,
	}
	if e.quick {
		cfg.Threads, cfg.Warmup, cfg.Duration = 8, 20*vtime.Microsecond, 60*vtime.Microsecond
	}
	return cfg
}

// setup runs a trial of minimal virtual length: engine, memory, prefill
// and the spawn of every simulated thread, which is all of a sim
// trial's set-up and cannot be reached separately from outside.
func (s *simSets) setup(e *env) time.Duration {
	defer e.onePForSim()()
	t := time.Now()
	cfg := s.config(e)
	cfg.Warmup, cfg.Duration = vtime.Nanosecond, vtime.Nanosecond
	workload.Run(cfg)
	return time.Since(t)
}

func (s *simSets) trial(e *env, rep *report) trialResult {
	defer e.onePForSim()()
	root := e.tr.beginTrial("trial:sim-sets")
	defer e.tr.end(root)

	sp := e.tr.begin("world.build")
	cfg := s.config(e)
	e.tr.end(sp)
	if e.tr != nil {
		sp = e.tr.begin("workload.setup")
		s.setup(e)
		e.tr.end(sp)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = e.tr.begin("workload.timed")
	t0 := time.Now()
	r := workload.Run(cfg)
	wall := time.Since(t0).Seconds()
	e.tr.end(sp)
	runtime.ReadMemStats(&after)
	sp.count("ops", float64(r.Ops))

	sp = e.tr.begin("check")
	rep.attempted += r.Ops
	if e.check {
		var sum uint64
		for _, n := range r.PerSock {
			sum += n
		}
		if sum != r.Ops {
			rep.fail(r.Ops, "sim-sets: sum(PerSock)=%d != Ops=%d", sum, r.Ops)
		}
		if r.Ops == 0 {
			rep.fail(1, "sim-sets: no operation completed in the window")
		}
		if s.ref == nil {
			s.ref = r
		} else if r.Ops != s.ref.Ops || !reflect.DeepEqual(r.PerSock, s.ref.PerSock) ||
			r.HTM != s.ref.HTM || r.Cache != s.ref.Cache || !reflect.DeepEqual(r.Sync, s.ref.Sync) {
			rep.fail(r.Ops, "sim-sets: counters differ from the first trial of the same seed (determinism)")
		}
	}
	e.tr.end(sp)

	c := r.Cache
	accesses := c.L1Hits + c.L3Hits + c.RemoteHits + c.DRAMAccesses
	return trialResult{
		parts: []part{{r.Ops, wall}},
		layer: map[string]float64{
			"sim.host_ns_per_access": ratio(wall*1e9, float64(accesses)),
			"sim.allocs_per_op":      ratio(float64(after.Mallocs-before.Mallocs), float64(r.Ops)),
			"sim.virtual_ops_per_s":  r.Throughput(),
			"cache.l1_hits":          float64(c.L1Hits),
			"cache.l3_hits":          float64(c.L3Hits),
			"cache.remote_hits":      float64(c.RemoteHits),
			"cache.remote_invals":    float64(c.RemoteInvals),
			"htm.starts":             float64(r.HTM.Starts),
			"htm.commits":            float64(r.HTM.Commits),
			"htm.aborts_conflict":    float64(r.HTM.Aborts[htm.CodeConflict]),
			"htm.aborts_capacity":    float64(r.HTM.Aborts[htm.CodeCapacity]),
			"htm.commit_ratio":       ratio(float64(r.HTM.Commits), float64(r.HTM.Starts)),
			"tle.attempts_per_op":    ratio(float64(r.Sync.TLE.Attempts), float64(r.Sync.TLE.Ops)),
			"tle.fallbacks":          float64(r.Sync.TLE.Fallbacks),
			"natle.mode_samples":     float64(len(r.Sync.Timeline)),
		},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- sim-service ------------------------------------------------------

type simService struct {
	ref *service.Result
}

func (s *simService) config(e *env) service.Config {
	cfg := service.Config{
		Seed: e.seed, Scheme: "tle",
		Arrival: service.ArrivalPoisson, Rate: 8e6, Window: 40 * vtime.Millisecond,
	}
	if e.quick {
		cfg.Window = 200 * vtime.Microsecond
	}
	return cfg
}

// setup generates the full schedule and runs a trial whose arrival
// window holds a handful of requests: engine, shards and server threads
// are built and torn down, nothing is served at length.
func (s *simService) setup(e *env) time.Duration {
	defer e.onePForSim()()
	t := time.Now()
	cfg := s.config(e)
	sp := e.tr.begin("schedule.gen")
	n := len(cfg.Schedule())
	e.tr.end(sp)
	sp.count("requests", float64(n))
	cfg.Window = 2 * vtime.Microsecond
	service.Run(cfg)
	return time.Since(t)
}

func (s *simService) trial(e *env, rep *report) trialResult {
	defer e.onePForSim()()
	root := e.tr.beginTrial("trial:sim-service")
	defer e.tr.end(root)

	sp := e.tr.begin("world.build")
	cfg := s.config(e)
	e.tr.end(sp)
	if e.tr != nil {
		sp = e.tr.begin("workload.setup")
		s.setup(e)
		e.tr.end(sp)
	}

	sp = e.tr.begin("workload.timed")
	t0 := time.Now()
	r := service.Run(cfg)
	wall := time.Since(t0).Seconds()
	e.tr.end(sp)
	sp.count("completed", float64(r.Completed))

	sp = e.tr.begin("check")
	rep.attempted += r.Arrivals
	rep.failed += r.Shed + r.DeadlineShed
	if e.check {
		checkConservation(rep, "sim-service", r)
		if s.ref == nil {
			s.ref = r
		} else if !sameServiceCounters(r, s.ref) {
			rep.fail(r.Arrivals, "sim-service: counters differ from the first trial of the same seed (determinism)")
		}
	}
	e.tr.end(sp)

	maxQ := 0
	for _, st := range r.PerShard {
		if st.MaxQueue > maxQ {
			maxQ = st.MaxQueue
		}
	}
	return trialResult{
		parts: []part{{r.Completed, wall}},
		layer: map[string]float64{
			"service.sim_e2e_p99_ns": r.E2E.Quantile(0.99).Nanoseconds(),
			"service.sim_batches":    float64(r.Batches),
			"service.sim_max_queue":  float64(maxQ),
		},
	}
}

// checkConservation verifies the two request-accounting laws every
// service trial must satisfy on either backend.
func checkConservation(rep *report, who string, r *service.Result) {
	if r.Arrivals != uint64(r.Requests) {
		rep.fail(uint64(r.Requests), "%s: Arrivals=%d != scheduled requests=%d", who, r.Arrivals, r.Requests)
	}
	if r.Arrivals != r.Admitted+r.Shed {
		rep.fail(r.Arrivals, "%s: Arrivals=%d != Admitted+Shed=%d", who, r.Arrivals, r.Admitted+r.Shed)
	}
	if r.Admitted != r.Completed+r.DeadlineShed {
		rep.fail(r.Admitted, "%s: Admitted=%d != Completed+DeadlineShed=%d", who, r.Admitted, r.Completed+r.DeadlineShed)
	}
}

func sameServiceCounters(a, b *service.Result) bool {
	return a.Arrivals == b.Arrivals && a.Admitted == b.Admitted && a.Shed == b.Shed &&
		a.Completed == b.Completed && a.Batches == b.Batches && a.DeadlineShed == b.DeadlineShed &&
		a.StoreCheck == b.StoreCheck && a.Drained == b.Drained &&
		a.E2E == b.E2E && a.Queue == b.Queue && a.Service == b.Service &&
		a.HTM == b.HTM && a.Cache == b.Cache && a.Sync.TLE == b.Sync.TLE &&
		reflect.DeepEqual(a.PerShard, b.PerShard)
}

// ---- native-sets, native-counter ---------------------------------------

// resolveSchemeNames looks every native scheme up before anything runs: a
// name the registry no longer has is reported and left out, so deleting
// a scheme cannot break the benchmark that judged it.
func resolveSchemeNames(w io.Writer, names []nativeScheme) []nativeScheme {
	var out []nativeScheme
	for _, s := range names {
		if _, err := scheme.LookupFor(backend.Native, s.Name); err != nil {
			fmt.Fprintf(w, "skipped: %s not registered\n", s.Name)
			continue
		}
		out = append(out, s)
	}
	return out
}

// nativeLoop is a closed loop of nativeWorkers goroutines, run once per
// registered scheme inside each trial (round-robin, fresh world each).
type nativeLoop struct {
	wl      string // workload.BackendSets or workload.BackendCounter, also the name in metrics and spans
	ops     int    // per thread
	schemes []nativeScheme
}

func (n *nativeLoop) config(e *env, lock string) workload.BackendConfig {
	return workload.BackendConfig{
		Lock: lock, Workload: n.wl, Threads: nativeWorkers, Ops: n.ops,
		Seed: e.seed, KeyRange: 2048, Set: sets.KindAVL,
	}
}

// gcOff switches the garbage collector off until the returned function
// is called. Every native set-up and trial runs that way and collects
// explicitly before each world is built (collectWorld): a trial has two
// workers on two CPUs and a concurrent collection would be a third.
func gcOff() (restore func()) {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// collectWorld frees the previous trial's world (tens of megabytes,
// garbage by now), so that one world is alive at a time.
func collectWorld() { runtime.GC() }

func newNativeWorld(e *env, words int) *native.World {
	return native.NewWorld(native.Config{Words: words, Seed: e.seed, Sockets: 2})
}

// setup builds every scheme's full-size world and runs a one-op trial
// on it: allocation, prefill, instance construction, goroutine start
// and join, final checksum.
func (n *nativeLoop) setup(e *env) (took time.Duration) {
	defer gcOff()()
	for _, s := range n.schemes {
		collectWorld()
		t := time.Now()
		cfg := n.config(e, s.Name)
		w := newNativeWorld(e, cfg.MemWords())
		cfg.Ops = 1
		workload.RunBackend(w, cfg)
		took += time.Since(t)
	}
	return took
}

func (n *nativeLoop) trial(e *env, rep *report) trialResult {
	defer gcOff()()
	res := trialResult{layer: map[string]float64{}, info: map[string]float64{}}
	var first *workload.BackendResult
	for _, s := range n.schemes {
		root := e.tr.beginTrial("trial:native-" + n.wl + ":" + s.Name)
		cfg := n.config(e, s.Name)
		collectWorld()

		sp := e.tr.begin("world.build")
		w := newNativeWorld(e, cfg.MemWords())
		e.tr.end(sp)

		start := e.tr.now()
		t0 := time.Now()
		r := workload.RunBackend(w, cfg)
		call := time.Since(t0)
		timed := time.Duration(r.ElapsedNs)
		e.tr.split(start, call-timed, "workload.setup", "workload.timed")

		sp = e.tr.begin("check")
		rep.attempted += r.Ops
		if first == nil {
			first = r
		}
		if e.check {
			checkBackend(rep, n.wl, s.Name, r, first)
		}
		e.tr.end(sp)
		e.tr.end(root)

		res.parts = append(res.parts, part{r.Ops, timed.Seconds()})
		st := r.Sync[0].TLE
		p := "native." + s.Tag + "." + n.wl
		res.layer[p+"_ops_per_s"] = r.Throughput()
		res.layer[p+"_abort_ratio"] = st.AbortRate()
		res.layer[p+"_fallbacks"] = float64(st.Fallbacks)
		res.info[s.Tag+"_ops_per_s"] = r.Throughput()
	}
	return res
}

// checkBackend verifies one closed-loop native trial: the counter must
// have counted every increment, and every scheme of a trial must leave
// the same set behind as the first one did.
func checkBackend(rep *report, wl, lock string, r, first *workload.BackendResult) {
	switch {
	case wl == workload.BackendCounter && r.Check != r.Ops:
		rep.fail(r.Ops, "native-counter %s: Check=%d != threads*ops=%d", lock, r.Check, r.Ops)
	case wl == workload.BackendSets && r.Check != first.Check:
		rep.fail(r.Ops, "native-sets %s: Check=%#x differs from %s's %#x", lock, r.Check, first.Lock, first.Check)
	}
}

// ---- native-service ---------------------------------------------------

const nativeServiceScheme = "native-tle"

// serviceQueue is the admission queue of native-service: deep enough
// that a host stall of a third of a second on the lowest rung shows up
// as latency and not as loss. The default of 64 sheds 6-10 % at 1e5
// req/s from run to run on a shared 2-CPU host, and 4096 still shed in
// two runs of ten.
const serviceQueue = 1 << 15

// ladder is the offered rates of native-service, requests per second,
// and the names its rungs carry in metric names and spans.
var ladder = [...]struct {
	name string
	rate float64
}{{"1e5", 1e5}, {"2e5", 2e5}, {"4e5", 4e5}}

// nativeService is the open-loop service on real goroutines. Each trial
// is one pass over the ladder, lowest rung first.
type nativeService struct {
	conformed bool
	words     map[string]int    // world size per trial name; a seed's schedules never change
	missed    [len(ladder)]bool // per rung: some trial so far lost a request or broke the SLO target
}

func (s *nativeService) config(e *env, rate float64, requests int, queueCap int) service.Config {
	return service.Config{
		Seed: e.seed, Scheme: nativeServiceScheme,
		Shards: 1, Servers: 1, Batch: 8, QueueCap: queueCap,
		Arrival: service.ArrivalPoisson, Rate: rate,
		Window:   vtime.Duration(float64(requests) / rate * float64(vtime.Second)),
		KeyRange: 4096, UpdatePct: 50,
	}
}

// requests is the mean schedule length of a rung. Go grows the slice
// Schedule appends to in steps (… 119 808, 150 089 …): a mean near a
// step puts some seeds' schedules on either side of it and shows as a
// 20 MB jump in peak memory between seeds, so the mean sits between two.
func (s *nativeService) requests(e *env) int {
	if e.quick {
		return 2000
	}
	return 135_000
}

// setup sizes and builds the world of every rung (NativeMemWords
// generates the rung's schedule) and serves a hundred requests once.
func (s *nativeService) setup(e *env) (took time.Duration) {
	defer gcOff()()
	for _, rung := range ladder {
		collectWorld()
		t := time.Now()
		cfg := s.config(e, rung.rate, s.requests(e), serviceQueue)
		newNativeWorld(e, cfg.NativeMemWords())
		took += time.Since(t)
	}
	collectWorld()
	t := time.Now()
	cfg := s.config(e, ladder[0].rate, 100, serviceQueue)
	service.RunNative(newNativeWorld(e, cfg.NativeMemWords()), cfg)
	return took + time.Since(t)
}

// serve runs one native service trial with its spans and conservation
// checks and returns the Result and the wall time of the RunNative call.
func (s *nativeService) serve(e *env, rep *report, name string, cfg service.Config) (*service.Result, float64) {
	defer gcOff()()
	root := e.tr.beginTrial("trial:native-service:" + name)
	defer e.tr.end(root)
	collectWorld()

	// NativeMemWords generates the whole schedule to size the world;
	// once per process and trial name is enough.
	words, ok := s.words[name]
	if !ok {
		sp := e.tr.begin("schedule.gen")
		words = cfg.NativeMemWords()
		e.tr.end(sp)
		s.words[name] = words
	}
	sp := e.tr.begin("world.build")
	w := newNativeWorld(e, words)
	e.tr.end(sp)

	start := e.tr.now()
	t0 := time.Now()
	r := service.RunNative(w, cfg)
	call := time.Since(t0)
	timed := time.Duration(int64(r.Drained) / int64(vtime.Nanosecond))
	e.tr.split(start, call-timed, "workload.setup", "workload.timed")

	sp = e.tr.begin("check")
	if e.check {
		checkConservation(rep, "native-service "+name, r)
	}
	e.tr.end(sp)
	return r, call.Seconds()
}

func us(d vtime.Duration) float64 { return d.Nanoseconds() / 1e3 }

func (s *nativeService) trial(e *env, rep *report) trialResult {
	if e.check && !s.conformed {
		s.conform(e, rep)
		s.conformed = true
	}
	res := trialResult{layer: map[string]float64{}, info: map[string]float64{}}
	for i, rung := range ladder {
		r, wall := s.serve(e, rep, rung.name, s.config(e, rung.rate, s.requests(e), serviceQueue))
		res.parts = append(res.parts, part{r.Completed, wall})
		lost := r.Shed + r.DeadlineShed
		p99 := us(r.E2E.Quantile(0.99))
		if lost != 0 || p99 > sloTargetUs {
			s.missed[i] = true
		}
		res.info["p99_us_at_"+rung.name] = p99
		if i > 0 {
			res.layer["service.p99_us_at_"+rung.name] = p99
			if i == len(ladder)-1 {
				res.layer["service.shed_frac_at_"+rung.name] = ratio(float64(lost), float64(r.Arrivals))
			}
			continue
		}
		// Loss counts as failed operations on the lowest rung only; on
		// higher rungs it fails the rung (sustained_rps) instead.
		rep.attempted += r.Arrivals
		rep.failed += lost
		res.layer["service.latency_p99_us"] = p99
		res.layer["service.failed_frac"] = ratio(float64(lost), float64(r.Arrivals))
		res.layer["service.e2e_p50_us"] = us(r.E2E.Quantile(0.50))
		res.layer["service.e2e_p999_us"] = us(r.E2E.Quantile(0.999))
		res.layer["service.queue_p99_us"] = us(r.Queue.Quantile(0.99))
		res.layer["service.section_p99_us"] = us(r.Service.Quantile(0.99))
		res.layer["service.avg_batch"] = ratio(float64(r.Completed), float64(r.Batches))
		res.layer["service.max_queue"] = float64(r.PerShard[0].MaxQueue)
		res.layer["service.drain_overrun_ms"] = r.Drained.Sub(r.LastArrival).Nanoseconds() / 1e6
	}
	// The highest rung that met the SLO target without loss in every
	// trial so far, 0 if none did.
	sustained := 0.0
	for i, rung := range ladder {
		if !s.missed[i] {
			sustained = rung.rate
		}
	}
	res.layer["service.sustained_rps"] = sustained
	res.info["sustained_rps"] = sustained
	return res
}

// flood offers 2e6 req/s against the default 64-deep queue for half a
// second and returns the goodput. Informational: bimodal on this host.
func (s *nativeService) flood(e *env, rep *report) float64 {
	rate, requests := 2e6, 1_000_000
	if e.quick {
		requests = 4000
	}
	cfg := s.config(e, rate, requests, 64)
	r, _ := s.serve(e, rep, "flood", cfg)
	return float64(r.Completed) / cfg.Window.Seconds()
}

// conform checks the native pipeline against the simulator's: with one
// server per shard and nothing shed, both apply each shard's requests
// in schedule order, so the final store contents must agree. A host
// stall long enough to shed makes a native attempt inconclusive, so it
// is repeated before it counts.
func (s *nativeService) conform(e *env, rep *report) {
	requests := 20_000
	if e.quick {
		requests = 2000
	}
	cfg := s.config(e, 2e5, requests, serviceQueue)
	simCfg := cfg
	simCfg.Scheme = "tle"
	want := service.Run(simCfg)
	if want.Shed+want.DeadlineShed != 0 {
		rep.fail(want.Arrivals, "native-service conformance: the sim reference shed %d requests", want.Shed+want.DeadlineShed)
		return
	}
	var got *service.Result
	for try := 0; try < 3; try++ {
		got, _ = s.serve(e, rep, "conformance", cfg)
		if got.Shed+got.DeadlineShed == 0 {
			break
		}
	}
	switch {
	case got.Shed+got.DeadlineShed != 0:
		rep.fail(got.Arrivals, "native-service conformance: shed %d of %d requests in each of 3 attempts", got.Shed+got.DeadlineShed, got.Arrivals)
	case got.StoreCheck != want.StoreCheck:
		rep.fail(got.Arrivals, "native-service conformance: StoreCheck=%#x, service.Run gives %#x", got.StoreCheck, want.StoreCheck)
	}
}
