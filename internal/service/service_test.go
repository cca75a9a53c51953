package service

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"natle/internal/backend"
	"natle/internal/expt"
	"natle/internal/fault"
	"natle/internal/scheme"
	"natle/internal/telemetry"
	"natle/internal/vtime"
)

// quick returns a short trial config exercising the full pipeline
// (shedding included at high rates) in little host time.
func quick() Config {
	return Config{
		Seed:   7,
		Window: 250 * vtime.Microsecond,
	}
}

// TestScheduleByteIdentical pins the arrival layer's determinism
// contract: the request schedule is a pure function of (Config, Seed),
// so rendering it from one host worker and from several concurrent
// workers must produce byte-identical text for every arrival process.
func TestScheduleByteIdentical(t *testing.T) {
	for _, kind := range Arrivals() {
		t.Run(string(kind.Kind), func(t *testing.T) {
			cfg := quick()
			cfg.Arrival = kind.Kind
			cfg.Rate = 8e6
			render := func() []byte { return AppendSchedule(nil, cfg.Schedule()) }
			// Workers=1 and Workers=4 generate the same schedule 4 times
			// each; every copy must match every other byte for byte.
			seq := expt.Map(1, 4, func(int) []byte { return render() })
			par := expt.Map(4, 4, func(int) []byte { return render() })
			for i := 1; i < 4; i++ {
				if !bytes.Equal(seq[0], seq[i]) || !bytes.Equal(seq[0], par[i]) {
					t.Fatalf("schedule differs across generations (copy %d)", i)
				}
			}
			if len(seq[0]) == 0 {
				t.Fatal("empty schedule at 8e6 req/s")
			}
		})
	}
}

// TestScheduleSeedAndOrder checks that schedules are time-ordered,
// route consistently (Shard is a function of Key), and that different
// seeds give different schedules.
func TestScheduleSeedAndOrder(t *testing.T) {
	cfg := quick()
	cfg.Rate = 4e6
	a := cfg.Schedule()
	for i, q := range a {
		if q.ID != i {
			t.Fatalf("request %d has ID %d", i, q.ID)
		}
		if i > 0 && q.At < a[i-1].At {
			t.Fatalf("schedule out of order at %d: %v < %v", i, q.At, a[i-1].At)
		}
		if want := int(hash64(q.Key) % 8); q.Shard != want {
			t.Fatalf("request %d: shard %d, want %d", i, q.Shard, want)
		}
	}
	cfg.Seed = 8
	b := cfg.Schedule()
	if bytes.Equal(AppendSchedule(nil, a), AppendSchedule(nil, b)) {
		t.Fatal("seeds 7 and 8 produced identical schedules")
	}
}

// resultFingerprint renders everything a trial measures; the
// determinism test compares these strings across runs and worker
// counts.
func resultFingerprint(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "reqs=%d arr=%d adm=%d shed=%d done=%d batches=%d clamped=%v\n",
		r.Requests, r.Arrivals, r.Admitted, r.Shed, r.Completed, r.Batches, r.BatchClamped)
	fmt.Fprintf(&b, "dshed=%d miss=%d deg=%d bo=%d peak=%d retry=%d\n",
		r.DeadlineShed, r.DeadlineMiss, r.DegradedBatches, r.Brownouts,
		r.BrownoutPeak, r.RetryExhausted)
	fmt.Fprintf(&b, "e2e=%v/%v/%v queue=%v service=%v\n",
		r.E2E.Quantile(0.5), r.E2E.Quantile(0.99), r.E2E.Quantile(0.999),
		r.Queue.Quantile(0.99), r.Service.Quantile(0.99))
	fmt.Fprintf(&b, "start=%v last=%v drained=%v\n", r.Start, r.LastArrival, r.Drained)
	fmt.Fprintf(&b, "sync=%+v\nhtm=%+v\nfault=%+v\n", r.Sync.TLE, r.HTM, r.Fault)
	for i, s := range r.PerShard {
		fmt.Fprintf(&b, "shard%d=%+v\n", i, s)
	}
	return b.String()
}

// TestRunDeterministic runs the same trial from concurrent pool
// workers and sequentially; every fingerprint must match — the service
// Result is a pure function of (Config, Seed).
func TestRunDeterministic(t *testing.T) {
	for _, sch := range []string{"lock", "tle", "natle"} {
		t.Run(sch, func(t *testing.T) {
			cfg := quick()
			cfg.Scheme = sch
			cfg.Rate = 16e6
			cfg.Arrival = ArrivalBursty
			fps := expt.Map(4, 4, func(int) string { return resultFingerprint(Run(cfg)) })
			for i := 1; i < 4; i++ {
				if fps[i] != fps[0] {
					t.Fatalf("run %d diverged:\n--- run 0\n%s\n--- run %d\n%s", i, fps[0], i, fps[i])
				}
			}
		})
	}
}

// TestConservation asserts the service's loss accounting under every
// fault schedule (and fault-free): arrivals = admitted + shed and
// admitted = completed — shedding is the only sanctioned loss, no
// matter what the injector does to the HTM underneath.
func TestConservation(t *testing.T) {
	schedules := append([]string{""}, fault.ScheduleNames()...)
	for _, sn := range schedules {
		name := sn
		if name == "" {
			name = "fault-free"
		}
		t.Run(name, func(t *testing.T) {
			cfg := quick()
			cfg.Scheme = "tle-robust"
			cfg.Arrival = ArrivalBursty
			cfg.Rate = 24e6 // past the knee: shedding genuinely occurs
			if sn != "" {
				sched, err := fault.LookupSchedule(sn)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Fault = &sched.Profile
			}
			r := Run(cfg)
			if r.Arrivals != uint64(r.Requests) {
				t.Errorf("arrivals %d != schedule length %d", r.Arrivals, r.Requests)
			}
			if r.Arrivals != r.Admitted+r.Shed {
				t.Errorf("admission leak: arrivals %d != admitted %d + shed %d",
					r.Arrivals, r.Admitted, r.Shed)
			}
			if r.Admitted != r.Completed {
				t.Errorf("completion leak: admitted %d != completed %d", r.Admitted, r.Completed)
			}
			for i, s := range r.PerShard {
				if s.Arrivals != s.Admitted+s.Shed || s.Admitted != s.Completed {
					t.Errorf("shard %d leak: %+v", i, s)
				}
			}
		})
	}
}

// TestBatchClamp checks the Batch capability contract: schemes without
// it (no mutual exclusion, or no capacity fallback) have multi-request
// batches forced to 1, flagged on the result; capable schemes keep
// their batch size.
func TestBatchClamp(t *testing.T) {
	for _, tc := range []struct {
		scheme  string
		clamped bool
	}{
		{"none", true}, {"htm-raw", true},
		{"lock", false}, {"tle", false},
	} {
		cfg := quick()
		cfg.Scheme = tc.scheme
		cfg.Rate = 2e6
		cfg.Batch = 8
		r := Run(cfg)
		if r.BatchClamped != tc.clamped {
			t.Errorf("%s: BatchClamped = %v, want %v", tc.scheme, r.BatchClamped, tc.clamped)
		}
		want := 8
		if tc.clamped {
			want = 1
		}
		if r.Config.Batch != want {
			t.Errorf("%s: effective batch %d, want %d", tc.scheme, r.Config.Batch, want)
		}
		if r.Admitted != r.Completed {
			t.Errorf("%s: admitted %d != completed %d", tc.scheme, r.Admitted, r.Completed)
		}
	}
}

// TestSearchSLO sanity-checks the bisection: the reported sustained
// rate comes from a probe that actually sustained, an impossible
// target reports unsustainable, and a trivially loose ceiling is hit
// exactly.
func TestSearchSLO(t *testing.T) {
	cfg := quick()
	cfg.Scheme = "lock"
	slo := SLO{Target: vtime.Millisecond, Lo: 1e6, Hi: 4e7, Iters: 3}
	r := SearchSLO(cfg, slo)
	if r.Sustained <= 0 {
		t.Fatalf("lock unsustainable even at %g req/s: %v", slo.Lo, r)
	}
	found := false
	for _, p := range r.Probes {
		if p.Rate == r.Sustained {
			if !p.Sustains {
				t.Fatalf("sustained rate %g comes from a failing probe", r.Sustained)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("sustained rate %g matches no probe", r.Sustained)
	}

	// An impossible target: nothing beats the serverPoll latency floor.
	hard := SearchSLO(cfg, SLO{Target: vtime.Nanosecond, Lo: 1e6, Hi: 4e6, Iters: 1})
	if hard.Sustained != 0 {
		t.Fatalf("1ns target reported sustainable at %g req/s", hard.Sustained)
	}

	// A floor-only bracket whose ceiling holds reports the ceiling.
	loose := SearchSLO(cfg, SLO{Target: vtime.Millisecond, Lo: 1e5, Hi: 2e5, Iters: 1})
	if loose.Sustained != 2e5 {
		t.Fatalf("loose ceiling: sustained %g, want 2e5", loose.Sustained)
	}
}

// TestArrivalLookup exercises the arrival registry surface.
func TestArrivalLookup(t *testing.T) {
	for _, n := range ArrivalNames() {
		k, err := LookupArrival(n)
		if err != nil || string(k) != n {
			t.Errorf("LookupArrival(%q) = %v, %v", n, k, err)
		}
	}
	if _, err := LookupArrival("nope"); err == nil {
		t.Error("LookupArrival(nope) succeeded")
	}
	if h := ArrivalHelp(); !strings.Contains(h, "poisson") || !strings.Contains(h, "bursty") {
		t.Errorf("ArrivalHelp missing processes:\n%s", h)
	}
}

// TestRingFIFOAcrossGrowth: the admission queue keeps arrival order
// while its buffer doubles under a wrapped head, and stops at its limit.
func TestRingFIFOAcrossGrowth(t *testing.T) {
	r := ring{limit: 100}
	next, want := 0, 0
	for round := 0; next < 300; round++ {
		for i := 0; i < 7 && r.n < r.limit; i++ {
			r.push(Request{ID: next})
			next++
		}
		for i := 0; i < 3; i++ {
			if got := r.pop().ID; got != want {
				t.Fatalf("round %d: popped request %d, want %d", round, got, want)
			}
			want++
		}
	}
	if len(r.buf) != r.limit {
		t.Fatalf("buffer grew to %d slots, limit %d", len(r.buf), r.limit)
	}
	for ; r.n > 0; want++ {
		if got := r.pop().ID; got != want {
			t.Fatalf("drain: popped request %d, want %d", got, want)
		}
	}
	if want != next {
		t.Fatalf("popped %d requests, pushed %d", want, next)
	}
}

// lateWorker is a pipeline thread on a hand-driven clock: every
// sleepUntil lands a fixed lateness past its target, as a frontend woken
// by a coarse kernel timer does, and nothing else moves the clock.
// apply calls check on every request it executes.
type lateWorker struct {
	clock *vtime.Time
	late  vtime.Duration
	check func(q Request)
}

func (w lateWorker) now() vtime.Time { return *w.clock }
func (w lateWorker) sleepUntil(t vtime.Time, _ bool) {
	*w.clock = max(*w.clock, t).Add(w.late)
}
func (w lateWorker) work(int)              {}
func (w lateWorker) apply(q Request)       { w.check(q) }
func (w lateWorker) critical(body func())  { body() }
func (w lateWorker) exclusive(body func()) { body() }
func (w lateWorker) wait(idle func() bool) {
	if !idle() {
		panic("lateWorker: a server waited on an open, empty queue")
	}
}

// TestDispatchStampsDueTime: a queued request carries its scheduled
// arrival, not the late clock it was admitted on, so the frontend's
// lateness shows as queue wait. A wake-up lands one lateness past the
// first arrival not yet due and admits every arrival due by then. In
// the "dispatch" row the frontend has a thread of its own (the
// simulator's shape) and the servers run once the whole schedule is
// admitted, on the final clock. In the "frontend" row it is shard 0's
// server (the native host's shape): it serves each of its shard's
// requests on the clock of the wake-up that admitted it, and shard 1
// runs afterwards on the final clock. Every request is executed with
// its due time as At, and the waits sum to exactly the distance from
// each due time to the clock it was served on.
func TestDispatchStampsDueTime(t *testing.T) {
	const (
		late  = 3 * vtime.Microsecond
		setup = vtime.Time(7 * vtime.Microsecond) // the clock when the frontend starts
	)
	cfg := Config{Seed: 5, Rate: 2e6, Window: 50 * vtime.Microsecond, Shards: 2, QueueCap: 1 << 10}
	for _, tc := range []struct {
		name   string
		serves bool // the frontend is shard 0's server
	}{{"dispatch", false}, {"frontend", true}} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPipeline(backend.Sim, cfg)
			sched := cfg.Schedule()
			if len(sched) == 0 {
				t.Fatal("empty schedule")
			}
			// The clock each request is admitted on, and the wait the
			// test expects of the whole schedule.
			admitted := make([]vtime.Time, len(sched))
			clock := setup
			for i, q := range sched {
				if due := setup.Add(vtime.Duration(q.At)); due > clock {
					clock = due.Add(late)
				}
				admitted[i] = clock
			}
			final := clock
			var want vtime.Duration
			for i, q := range sched {
				served := final
				if tc.serves && q.Shard == 0 {
					served = admitted[i]
				}
				want += served.Sub(setup.Add(vtime.Duration(q.At)))
			}

			clock = setup
			executed := 0
			w := lateWorker{clock: &clock, late: late, check: func(q Request) {
				executed++
				if due := setup.Add(vtime.Duration(sched[q.ID].At)); q.At != due {
					t.Fatalf("request %d executed with At %v, want its due time %v (clock %v)", q.ID, q.At, due, clock)
				}
			}}
			res := p.run(func(p *pipeline) {
				for range p.cfg.Shards {
					p.addShard(0, noLock{}, func() scheme.Stats { return scheme.Stats{} }, func(func(k, v uint64)) {})
				}
				if tc.serves {
					p.serve(w, p.shards[0], p.newFrontend(w.now(), 1))
					p.serve(w, p.shards[1], nil)
					return
				}
				p.dispatch(w)
				next := make([]int, len(p.shards))
				for _, q := range sched {
					due := setup.Add(vtime.Duration(q.At))
					r := &p.shards[q.Shard].queue
					got := r.buf[(r.head+next[q.Shard])%len(r.buf)]
					next[q.Shard]++
					if got.ID != q.ID || got.At != due {
						t.Fatalf("request %d queued as %d at %v, want at its due time %v (clock %v)", q.ID, got.ID, got.At, due, clock)
					}
				}
				for _, s := range p.shards {
					p.serve(w, s, nil)
				}
			})
			if clock != final {
				t.Fatalf("clock ended at %v, want %v", clock, final)
			}
			if executed != len(sched) || res.Completed != uint64(len(sched)) {
				t.Fatalf("executed %d and completed %d of %d scheduled requests", executed, res.Completed, len(sched))
			}
			if res.Queue.SumPs != uint64(want) || res.E2E.SumPs != uint64(want) {
				t.Fatalf("queue wait sums to %d ps and e2e to %d ps, want %d", res.Queue.SumPs, res.E2E.SumPs, want)
			}
		})
	}
}

// TestEnumNames: every member of the enums that reach traces, summaries
// and figure labels has a name of its own. A member added without a
// case in its String switch would print as the numeric fallback; the
// switches that carry behaviour (apply, sets.InsertWords) fail their
// own tests instead.
func TestEnumNames(t *testing.T) {
	for _, tc := range []struct {
		enum     string
		n        int
		name     func(i int) string
		fallback string // fmt pattern of the String default
	}{
		{"telemetry.Code", int(telemetry.NumCodes), func(i int) string { return telemetry.Code(i).String() }, "code(%d)"},
		{"telemetry.Kind", int(telemetry.NumKinds), func(i int) string { return telemetry.Kind(i).String() }, "kind(%d)"},
		{"service.Op", int(NumOps), func(i int) string { return Op(i).String() }, "op(%d)"},
	} {
		seen := make(map[string]int)
		for i := 0; i < tc.n; i++ {
			name := tc.name(i)
			if name == fmt.Sprintf(tc.fallback, i) {
				t.Errorf("%s(%d) has no name: String returns the fallback %s", tc.enum, i, name)
			} else if j, dup := seen[name]; dup {
				t.Errorf("%s(%d) and %s(%d) are both named %q", tc.enum, j, tc.enum, i, name)
			}
			seen[name] = i
		}
	}
}

// TestReadOnlySchedule: a negative UpdatePct is a read-only service,
// every request a get, while 0 keeps the default mix of 50% updates.
func TestReadOnlySchedule(t *testing.T) {
	cfg := quick()
	cfg.Rate = 8e6
	cfg.UpdatePct = -1
	sched := cfg.Schedule()
	if len(sched) == 0 {
		t.Fatal("empty schedule")
	}
	for _, q := range sched {
		if q.Op != OpGet {
			t.Fatalf("request %d is a %v in a read-only schedule", q.ID, q.Op)
		}
	}
	cfg.UpdatePct = 0
	updates := 0
	for _, q := range cfg.Schedule() {
		if q.Op != OpGet {
			updates++
		}
	}
	if updates == 0 {
		t.Fatal("UpdatePct 0 produced no updates; it selects the default 50")
	}
}

// FuzzSchedule holds the arrival stream to its contract over seed,
// rate, window, shards, arrival kind, update share and deadline: the
// pulled stream is Schedule element for element, arrivals are ordered
// and inside the window, IDs are dense from 0, every request routes to
// the shard its key hashes to, every deadline is in [D/2, 3D/2) (0 when
// deadlines are off), a negative update share yields only gets, and
// the counting pass's puts per shard match a count over the slice.
func FuzzSchedule(f *testing.F) {
	for kind := range uint8(3) {
		for _, deadlineNs := range []uint16{0, 700} {
			f.Add(int64(kind)+1, uint32(4_000_000), uint16(300), uint8(8), kind, int8(0), deadlineNs)
		}
	}
	f.Add(int64(-5), uint32(20_000_000), uint16(100), uint8(1), uint8(1), int8(-1), uint16(1))
	f.Add(int64(0), uint32(50_000), uint16(900), uint8(3), uint8(2), int8(100), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, rate uint32, windowUs uint16, shards, kind uint8, updates int8, deadlineNs uint16) {
		cfg := Config{
			Seed:      seed,
			Arrival:   arrivalTable[int(kind)%len(arrivalTable)].Kind,
			Rate:      float64(rate%40_000_000 + 1),
			Window:    vtime.Duration(windowUs%1000+1) * vtime.Microsecond,
			Shards:    int(shards%16) + 1,
			UpdatePct: int(updates),
			Deadline:  vtime.Duration(deadlineNs) * vtime.Nanosecond,
		}
		sched := cfg.Schedule()
		d := cfg
		d.defaults()
		a := d.arrivals()
		var pulled []Request
		var q Request
		for a.next(&q) {
			pulled = append(pulled, q)
		}
		if a.next(&q) {
			t.Fatalf("the stream yields %+v after it ended", q)
		}
		if !slices.Equal(pulled, sched) {
			t.Fatalf("pulled %d requests, Schedule has %d, and they differ", len(pulled), len(sched))
		}
		puts := make([]int, d.Shards)
		for i, q := range sched {
			if q.ID != i {
				t.Fatalf("request %d has ID %d", i, q.ID)
			}
			if q.At >= vtime.Time(d.Window) || i > 0 && q.At < sched[i-1].At {
				t.Fatalf("request %d arrives at %v (previous %v, window %v)", i, q.At, sched[max(i-1, 0)].At, d.Window)
			}
			if want := int(hash64(q.Key) % uint64(d.Shards)); q.Shard != want {
				t.Fatalf("request %d: shard %d, want %d", i, q.Shard, want)
			}
			if dl := d.Deadline; dl > 0 && (q.Deadline < dl/2 || q.Deadline >= dl/2+dl) || dl == 0 && q.Deadline != 0 {
				t.Fatalf("request %d: deadline %v with Deadline %v", i, q.Deadline, dl)
			}
			if d.UpdatePct < 0 && q.Op != OpGet {
				t.Fatalf("request %d is a %v with UpdatePct %d", i, q.Op, d.UpdatePct)
			}
			if q.Op == OpPut {
				puts[q.Shard]++
			}
		}
		if got := cfg.putsPerShard(); !slices.Equal(got, puts) {
			t.Fatalf("counting pass: puts per shard %v, the schedule has %v", got, puts)
		}
	})
}
