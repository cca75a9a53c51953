package service

import (
	"fmt"
	"strings"
	"testing"

	"natle/internal/backend"
	"natle/internal/expt"
	"natle/internal/fault"
	"natle/internal/htm"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/telemetry"
	"natle/internal/vtime"
)

// overloaded returns a trial driven well past the shards' capacity
// with the full overload-control stack armed.
func overloaded() Config {
	cfg := quick()
	cfg.Scheme = "tle-robust"
	cfg.Rate = 64e6
	cfg.QueueCap = 1024
	cfg.Deadline = 50 * vtime.Microsecond
	cfg.Brownout = &BrownoutConfig{SLO: 50 * vtime.Microsecond}
	cfg.RetryBudget = 256
	return cfg
}

// TestDeadlineDraws pins the deadline sampling contract: no deadlines
// without the knob, and with it every request gets a budget in
// [Deadline/2, 3*Deadline/2).
func TestDeadlineDraws(t *testing.T) {
	cfg := quick()
	cfg.Rate = 8e6
	for _, q := range cfg.Schedule() {
		if q.Deadline != 0 {
			t.Fatalf("request %d has deadline %v with the knob off", q.ID, q.Deadline)
		}
	}
	d := 100 * vtime.Microsecond
	cfg.Deadline = d
	sched := cfg.Schedule()
	if len(sched) == 0 {
		t.Fatal("empty schedule")
	}
	for _, q := range sched {
		if q.Deadline < d/2 || q.Deadline >= d/2+d {
			t.Fatalf("request %d deadline %v outside [%v, %v)", q.ID, q.Deadline, d/2, d/2+d)
		}
	}
}

// TestDeadlineShedding drives the service past capacity with deadlines
// armed: queue-wait shedding must fire, be counted separately from
// capacity sheds, and the extended conservation law must hold globally
// and per shard.
func TestDeadlineShedding(t *testing.T) {
	cfg := quick()
	cfg.Scheme = "tle-robust"
	cfg.Rate = 64e6
	cfg.QueueCap = 1024
	cfg.Deadline = 50 * vtime.Microsecond
	r := Run(cfg)
	if r.DeadlineShed == 0 {
		t.Fatal("overloaded deep queue shed no deadlined requests")
	}
	if r.Arrivals != r.Admitted+r.Shed {
		t.Fatalf("admission leak: arrivals %d != admitted %d + shed %d",
			r.Arrivals, r.Admitted, r.Shed)
	}
	if r.Admitted != r.Completed+r.DeadlineShed {
		t.Fatalf("completion leak: admitted %d != completed %d + deadline-shed %d",
			r.Admitted, r.Completed, r.DeadlineShed)
	}
	for i, s := range r.PerShard {
		if s.Arrivals != s.Admitted+s.Shed || s.Admitted != s.Completed+s.DeadlineShed {
			t.Errorf("shard %d leak: %+v", i, s)
		}
	}

	// Without deadlines nothing may be deadline-shed or counted missed.
	cfg.Deadline = 0
	r = Run(cfg)
	if r.DeadlineShed != 0 || r.DeadlineMiss != 0 {
		t.Fatalf("deadline counters active with the knob off: %+v", r)
	}
}

// TestBrownoutControllerLadder unit-tests the per-shard controller:
// sustained p99 breaches climb the ladder to the scheme downgrade,
// and Hold in-SLO windows per level probe the way back down.
func TestBrownoutControllerLadder(t *testing.T) {
	cfg := BrownoutConfig{
		SLO:      100 * vtime.Microsecond,
		Window:   10 * vtime.Microsecond,
		MinCount: 1,
	}.withDefaults()
	var h telemetry.Histogram
	var st ShardStats
	b := newBrownout(cfg, 0, 0, 8, nil)
	if b.maxLevel != 4 { // 8 -> 4 -> 2 -> 1, then the scheme downgrade
		t.Fatalf("maxLevel = %d, want 4", b.maxLevel)
	}

	now := vtime.Time(0)
	b.tick(now, &h, &st) // arms the first window

	// Breaching windows climb one level each and saturate at maxLevel.
	for i := 0; i < 6; i++ {
		h.Observe(vtime.Millisecond)
		now = now.Add(cfg.Window)
		b.tick(now, &h, &st)
	}
	if b.level != b.maxLevel || !b.degraded() {
		t.Fatalf("level %d after sustained breach, want %d (degraded)", b.level, b.maxLevel)
	}
	if got := b.batch(8); got != 1 {
		t.Fatalf("degraded batch bound %d, want 1", got)
	}
	if st.BrownoutPeak != b.maxLevel {
		t.Fatalf("peak %d, want %d", st.BrownoutPeak, b.maxLevel)
	}

	// In-SLO windows recover one level per Hold+1 windows, back to 0.
	transitions := st.Brownouts
	for i := 0; i < b.maxLevel*(cfg.Hold+1)+2; i++ {
		h.Observe(vtime.Microsecond)
		now = now.Add(cfg.Window)
		b.tick(now, &h, &st)
	}
	if b.level != 0 {
		t.Fatalf("level %d after sustained recovery, want 0", b.level)
	}
	if st.Brownouts != transitions+uint64(b.maxLevel) {
		t.Fatalf("recovery made %d transitions, want %d",
			st.Brownouts-transitions, b.maxLevel)
	}

	// Sparse windows (below MinCount) freeze the level entirely.
	cfgSparse := cfg
	cfgSparse.MinCount = 100
	bs := newBrownout(cfgSparse, 0, 0, 8, nil)
	var st2 ShardStats
	bs.tick(now, &h, &st2)
	for i := 0; i < 4; i++ {
		h.Observe(vtime.Millisecond)
		now = now.Add(cfg.Window)
		bs.tick(now, &h, &st2)
	}
	if bs.level != 0 || st2.Brownouts != 0 {
		t.Fatalf("sparse windows moved the level: %d (%d transitions)", bs.level, st2.Brownouts)
	}
}

// TestBrownoutEndToEnd arms the controller on an overloaded service:
// levels must move, batches must run degraded, and every transition
// must reach the telemetry recorder.
func TestBrownoutEndToEnd(t *testing.T) {
	cfg := overloaded()
	col := telemetry.NewCollector(telemetry.Config{})
	cfg.Recorder = col
	r := Run(cfg)
	if r.Brownouts == 0 {
		t.Fatal("overloaded run made no brownout transitions")
	}
	if r.BrownoutPeak == 0 {
		t.Fatal("overloaded run peaked at level 0")
	}
	if r.DegradedBatches == 0 {
		t.Fatal("overloaded run never ran a degraded batch")
	}
	if got := col.Summary().Brownouts; got != r.Brownouts {
		t.Fatalf("telemetry saw %d brownout transitions, result says %d", got, r.Brownouts)
	}
	if r.Admitted != r.Completed+r.DeadlineShed {
		t.Fatalf("completion leak under brownout: admitted %d != completed %d + deadline-shed %d",
			r.Admitted, r.Completed, r.DeadlineShed)
	}
}

// TestRetryBudgetDegradesService: an abort-heavy fault schedule with a
// small per-shard retry budget must exhaust windows and push batches
// onto the degraded scheme — without losing a single request.
func TestRetryBudgetDegradesService(t *testing.T) {
	sched, err := fault.LookupSchedule("storm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quick()
	cfg.Scheme = "tle-robust"
	cfg.Rate = 32e6
	cfg.Fault = &sched.Profile
	cfg.RetryBudget = 1
	r := Run(cfg)
	if r.RetryExhausted == 0 {
		t.Fatal("a 1-token budget under an abort storm never ran dry")
	}
	if r.DegradedBatches == 0 {
		t.Fatal("exhausted budget never degraded a batch")
	}
	if r.Arrivals != r.Admitted+r.Shed || r.Admitted != r.Completed {
		t.Fatalf("conservation broken: %+v", r)
	}
}

// TestOverloadDeterministic: the full overload-control stack (deadlines,
// brownout, retry budget) stays a pure function of (Config, Seed) at
// any host parallelism.
func TestOverloadDeterministic(t *testing.T) {
	cfg := overloaded()
	cfg.Arrival = ArrivalBursty
	fps := expt.Map(4, 4, func(int) string { return resultFingerprint(Run(cfg)) })
	for i := 1; i < 4; i++ {
		if fps[i] != fps[0] {
			t.Fatalf("run %d diverged:\n--- run 0\n%s\n--- run %d\n%s", i, fps[0], i, fps[i])
		}
	}
}

// TestConservationWithOverloadControl mirrors TestConservation with
// the full stack armed: under every fault schedule the extended law
// (admitted = completed + deadline-shed) holds exactly.
func TestConservationWithOverloadControl(t *testing.T) {
	schedules := append([]string{""}, fault.ScheduleNames()...)
	for _, sn := range schedules {
		name := sn
		if name == "" {
			name = "fault-free"
		}
		t.Run(name, func(t *testing.T) {
			cfg := overloaded()
			cfg.Arrival = ArrivalBursty
			if sn != "" {
				sched, err := fault.LookupSchedule(sn)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Fault = &sched.Profile
			}
			r := Run(cfg)
			if r.Arrivals != r.Admitted+r.Shed {
				t.Errorf("admission leak: arrivals %d != admitted %d + shed %d",
					r.Arrivals, r.Admitted, r.Shed)
			}
			if r.Admitted != r.Completed+r.DeadlineShed {
				t.Errorf("completion leak: admitted %d != completed %d + deadline-shed %d",
					r.Admitted, r.Completed, r.DeadlineShed)
			}
			for i, s := range r.PerShard {
				if s.Arrivals != s.Admitted+s.Shed || s.Admitted != s.Completed+s.DeadlineShed {
					t.Errorf("shard %d leak: %+v", i, s)
				}
			}
		})
	}
}

// TestBrownoutPinned pins a brownout-armed run whose shards alternate
// between overload and idleness (bursty arrivals at half the overloaded
// rate): the controller's transitions, the degraded batches and the
// whole e2e histogram. The idle ticks that let a drained shard probe
// recovery run inside the servers' WaitUntil condition, on whichever
// stack the scheduler evaluates it; a tick at a different virtual time,
// or a missing one, moves every number here (without idle ticks the run
// ends with 2079 degraded batches). The histogram was re-captured when
// degraded batches moved from a second lock instance onto the shard's
// own fallback lock: transitions and degraded batches did not move, six
// buckets shifted by at most 9 counts and the sum by +0.05%, because a
// degraded batch now waits out the shard's running sections.
func TestBrownoutPinned(t *testing.T) {
	cfg := overloaded()
	cfg.Arrival = ArrivalBursty
	cfg.Rate = 32e6
	r := Run(cfg)
	var hist strings.Builder
	for i, n := range r.E2E.Counts {
		if n > 0 {
			fmt.Fprintf(&hist, "%d:%d ", i, n)
		}
	}
	got := fmt.Sprintf("brownouts=%d peak=%d degraded=%d e2e=%ssum=%d",
		r.Brownouts, r.BrownoutPeak, r.DegradedBatches, hist.String(), r.E2E.SumPs)
	const want = "brownouts=32 peak=4 degraded=1390 e2e=19:18 20:47 21:131 22:396 23:562 24:771 25:1428 26:6773 27:585 sum=431637710388"
	if got != want {
		t.Errorf("brownout run moved:\n got %s\nwant %s", got, want)
	}
}

// exclProbe wraps one shard's scheme instance and counts the threads
// inside a non-speculative section of it, whether they entered through
// Critical (plain lock, TLE fallback) or Exclusive (a degraded batch).
// The counter is host-side; the simulator runs one thread at a time and
// interleaves them at the body's memory accesses.
type exclProbe struct {
	scheme.Instance
	sys     *htm.System
	holders int
}

// exclOverlaps counts sections entered while another thread held the
// same shard's lock, over every exclProbe instance.
var exclOverlaps int

func (p *exclProbe) guard(c *sim.Ctx, body func()) func() {
	return func() {
		if p.sys.InTx(c) {
			body()
			return
		}
		if p.holders++; p.holders > 1 {
			exclOverlaps++
		}
		body()
		p.holders--
	}
}

func (p *exclProbe) Critical(c *sim.Ctx, body func())  { p.Instance.Critical(c, p.guard(c, body)) }
func (p *exclProbe) Exclusive(c *sim.Ctx, body func()) { p.Instance.Exclusive(c, p.guard(c, body)) }

func init() {
	for _, d := range scheme.AllFor(backend.Sim) {
		if !d.Batch {
			continue
		}
		probed := *d
		probed.Name = "probe-" + d.Name
		probed.Make = func(sys *htm.System, c *sim.Ctx, socket int, opt scheme.Options) scheme.Instance {
			return &exclProbe{Instance: d.Make(sys, c, socket, opt), sys: sys}
		}
		scheme.Register(&probed)
	}
}

// TestDegradedBatchesExcludeNormalOnes: with two servers per shard and
// the overload stack switching batches between Critical and Exclusive,
// no two non-speculative sections of one shard may ever overlap — a
// degraded batch holds the very lock the shard's transactions subscribe
// to, not a second one beside it.
func TestDegradedBatchesExcludeNormalOnes(t *testing.T) {
	for _, name := range scheme.BatchNames() {
		if !strings.HasPrefix(name, "probe-") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := overloaded()
			cfg.Scheme = name
			cfg.Arrival = ArrivalBursty
			cfg.Servers = 2
			exclOverlaps = 0
			r := Run(cfg)
			if r.DegradedBatches == 0 || r.DegradedBatches == r.Batches {
				t.Fatalf("%d of %d batches degraded; the test needs both kinds", r.DegradedBatches, r.Batches)
			}
			if exclOverlaps != 0 {
				t.Errorf("%d non-speculative sections overlapped another on the same shard (%d batches, %d degraded)",
					exclOverlaps, r.Batches, r.DegradedBatches)
			}
		})
	}
}
