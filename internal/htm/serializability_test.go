package htm

import (
	"reflect"
	"testing"
	"testing/quick"

	"natle/internal/cache"
	"natle/internal/machine"
	"natle/internal/mem"
	"natle/internal/sim"
	"natle/internal/telemetry"
	"natle/internal/vtime"
)

// TestSerializabilityBankTransfer runs concurrent transactional
// transfers between accounts and checks, both inside read-only
// transactions (snapshot consistency) and at the end (conservation),
// that committed transactions appear atomic.
func TestSerializabilityBankTransfer(t *testing.T) {
	f := func(seed int64) bool {
		const accounts, threads, opsPer = 32, 12, 120
		const initial = 1000
		ok := true
		e := sim.New(machine.LargeX52(), machine.FillSocketFirst{}, threads, seed)
		s := NewSystem(e, 1<<14)
		var base mem.Addr
		e.Spawn(nil, func(c *sim.Ctx) {
			base = s.Alloc(c, accounts*mem.WordsPerLine)
			at := func(i int) mem.Addr { return base + mem.Addr(i*mem.WordsPerLine) }
			for i := 0; i < accounts; i++ {
				s.Write(c, at(i), initial)
			}
			for i := 0; i < threads; i++ {
				e.Spawn(c, func(w *sim.Ctx) {
					for j := 0; j < opsPer; j++ {
						if w.Intn(8) == 0 {
							// Read-only audit: the in-transaction sum
							// must equal the invariant.
							var sum uint64
							o := s.Try(w, func() {
								sum = 0
								for i := 0; i < accounts; i++ {
									sum += s.Read(w, at(i))
								}
							})
							if o.Committed && sum != accounts*initial {
								ok = false
							}
							continue
						}
						from, to := w.Intn(accounts), w.Intn(accounts)
						if from == to {
							continue
						}
						amt := uint64(w.Intn(50))
						retryBank(s, w, func() {
							bf := s.Read(w, at(from))
							if bf < amt {
								return
							}
							s.Write(w, at(from), bf-amt)
							s.Write(w, at(to), s.Read(w, at(to))+amt)
						})
					}
				})
			}
			c.SetIdle(true)
			c.WaitOthers(vtime.Microsecond)
			var sum uint64
			for i := 0; i < accounts; i++ {
				sum += s.Mem.Raw(at(i))
			}
			if sum != accounts*initial {
				ok = false
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

func retryBank(s *System, c *sim.Ctx, body func()) {
	backoff := 100 * vtime.Nanosecond
	for {
		if o := s.Try(c, body); o.Committed {
			return
		}
		c.AdvanceIdle(vtime.Duration(c.Intn(int(backoff)) + 1))
		c.Yield()
		if backoff < 50*vtime.Microsecond {
			backoff *= 2
		}
	}
}

// TestZombieTransactionCausesNoHarm dooms a transaction from outside
// and lets the victim's body run on past the access that finds it
// aborted: loads and a store of the line an in-flight bystander is
// writing, an allocation, external work, random draws and checkpoints.
// From that access to the end of the body nothing changes — the
// victim's clock, the access counters, the telemetry, the line
// registrations, memory —
// after Try the victim's clock and RNG are where a body that stopped at
// its abort point leaves them, and the bystander commits.
func TestZombieTransactionCausesNoHarm(t *testing.T) {
	run := func(zombie bool) (after vtime.Time, draw uint64) {
		e := sim.New(machine.LargeX52(), machine.FillSocketFirst{}, 3, 7)
		s := NewSystem(e, 1<<12)
		s.SetRecorder(telemetry.NewCollector(telemetry.Config{}))
		e.Spawn(nil, func(c *sim.Ctx) {
			a := s.Alloc(c, 1)
			b := s.Alloc(c, 1)
			victimAborted := false
			bystanderOK := false
			e.Spawn(c, func(w *sim.Ctx) { // victim
				o := s.Try(w, func() {
					s.Read(w, a)
					for i := 0; i < 1000; i++ {
						w.AdvanceIdle(200 * vtime.Nanosecond)
						w.Checkpoint()
					}
					if s.Read(w, b) != 0 { // the abort point
						t.Error("the load that found the attempt aborted returned data")
					}
					if !zombie {
						return
					}
					before := observe(s, w)
					s.Write(w, b, 7)
					if s.Read(w, a) != 0 || s.Read(w, b) != 0 {
						t.Error("a dead attempt's load returned data")
					}
					if got := s.Alloc(w, mem.WordsPerLine); got != 0 {
						t.Errorf("a dead attempt allocated %d", got)
					}
					w.Work(1000)
					w.Advance(vtime.Microsecond)
					w.Checkpoint()
					if w.Rand64() != 0 {
						t.Error("a dead attempt drew from its thread's RNG")
					}
					if got := observe(s, w); !reflect.DeepEqual(got, before) {
						t.Errorf("the dead attempt had effects:\nat its abort %+v\nat its end   %+v", before, got)
					}
				})
				victimAborted = !o.Committed
				after, draw = w.Now(), w.Rand64()
			})
			e.Spawn(c, func(w *sim.Ctx) { // attacker + bystander
				w.AdvanceIdle(2 * vtime.Microsecond)
				w.Checkpoint()
				s.Write(w, a, 1) // aborts the victim
				// The bystander's transaction writes b and stays in flight
				// past the victim's abort point: a zombie store to b would
				// abort it (requester wins).
				o := s.Try(w, func() {
					s.Write(w, b, 2)
					for i := 0; i < 2000; i++ {
						w.AdvanceIdle(200 * vtime.Nanosecond)
						w.Checkpoint()
					}
				})
				bystanderOK = o.Committed
			})
			c.SetIdle(true)
			c.WaitOthers(vtime.Microsecond)
			if !victimAborted {
				t.Error("victim survived a conflicting write")
			}
			if !bystanderOK {
				t.Error("bystander transaction was aborted by a zombie")
			}
			if got := s.Mem.Raw(b); got != 2 {
				t.Errorf("b = %d after the bystander's commit, want 2", got)
			}
		})
		e.Run()
		return after, draw
	}
	stopNow, stopDraw := run(false)
	goNow, goDraw := run(true)
	if goNow != stopNow || goDraw != stopDraw {
		t.Errorf("after Try the victim is at %v with next draw %#x; a body that stopped at its abort point leaves %v, %#x",
			goNow, goDraw, stopNow, stopDraw)
	}
}

// observation is what a dead attempt must leave unchanged.
type observation struct {
	Now        vtime.Time
	Cache      cache.Stats
	HTM        Stats
	Telemetry  telemetry.Summary
	Words      []uint64
	RegReaders [][2]uint64
	RegWriter  []int16
}

func observe(s *System, c *sim.Ctx) observation {
	o := observation{
		Now:        c.Now(),
		Cache:      s.Cache.Stats,
		HTM:        s.Stats,
		Telemetry:  s.Recorder().(*telemetry.Collector).Summary(),
		RegReaders: append([][2]uint64(nil), s.regReaders...),
		RegWriter:  append([]int16(nil), s.regWriter...),
	}
	for a := 0; a < s.Mem.Words(); a++ {
		o.Words = append(o.Words, s.Mem.Raw(mem.Addr(a)))
	}
	return o
}

// TestDeadAttemptFreezesItsThread: a body that calls Work and draws
// random numbers after a dead Read leaves its thread's clock and RNG at
// their values at the abort instant. Inside the body the clock does not
// move and every draw is 0 without consuming the stream; after Try the
// clock is still the abort instant and the next draw is the one a body
// that stopped at its abort point sees.
func TestDeadAttemptFreezesItsThread(t *testing.T) {
	run := func(more bool) (abortAt, after vtime.Time, next uint64) {
		e := sim.New(machine.LargeX52(), nil, 1, 3)
		s := NewSystem(e, 1<<10)
		e.Spawn(nil, func(c *sim.Ctx) {
			x := s.Alloc(c, 1)
			o := s.Try(c, func() {
				// Doomed, as by another thread's conflicting write; the
				// next access finds it.
				s.doAbort(s.state(c), CodeConflict, true)
				s.Read(c, x)
				abortAt = c.Now()
				if !more {
					return
				}
				c.Work(1000)
				c.AdvanceIdle(vtime.Microsecond)
				if c.Rand64() != 0 || c.Intn(10) != 0 || c.Float64() != 0 {
					t.Error("a frozen thread drew a random number")
				}
				if c.Now() != abortAt {
					t.Errorf("a frozen thread's clock moved from %v to %v", abortAt, c.Now())
				}
			})
			if o.Committed || o.Code != CodeConflict || !o.Hint {
				t.Errorf("outcome %+v, want a conflict abort with the hint set", o)
			}
			after, next = c.Now(), c.Rand64()
		})
		e.Run()
		return abortAt, after, next
	}
	stopAt, stopAfter, stopNext := run(false)
	goAt, goAfter, goNext := run(true)
	if goAt != stopAt || goAfter != goAt || stopAfter != stopAt {
		t.Errorf("abort instants %v and %v, clocks after Try %v and %v: want all equal",
			stopAt, goAt, stopAfter, goAfter)
	}
	if goNext != stopNext {
		t.Errorf("next draw after Try %#x, want %#x as after a body that stopped at its abort", goNext, stopNext)
	}
}

// TestAbortStorm injects constant explicit aborts and checks that the
// runtime's bookkeeping (slots, registrations, stats) stays sound.
func TestAbortStorm(t *testing.T) {
	e := sim.New(machine.LargeX52(), machine.FillSocketFirst{}, 8, 11)
	s := NewSystem(e, 1<<12)
	e.Spawn(nil, func(c *sim.Ctx) {
		a := s.Alloc(c, 1)
		for i := 0; i < 8; i++ {
			e.Spawn(c, func(w *sim.Ctx) {
				for j := 0; j < 200; j++ {
					s.Try(w, func() {
						_ = s.Read(w, a)
						s.Write(w, a, 1)
						s.Abort(w, CodeExplicit)
					})
				}
			})
		}
		c.SetIdle(true)
		c.WaitOthers(vtime.Microsecond)
		if s.Stats.Commits != 0 {
			t.Errorf("commits = %d, want 0", s.Stats.Commits)
		}
		if s.Stats.Aborts[CodeExplicit] != 8*200 {
			t.Errorf("explicit aborts = %d, want 1600", s.Stats.Aborts[CodeExplicit])
		}
		if got := s.Mem.Raw(a); got != 0 {
			t.Errorf("memory = %d after pure-abort storm, want 0", got)
		}
		// No stale registrations: a fresh transaction must commit.
		o := s.Try(c, func() { s.Write(c, a, 9) })
		if !o.Committed {
			t.Errorf("post-storm transaction failed: %+v", o)
		}
	})
	e.Run()
}

// TestReadCapacityAbort exercises the read-set bound (the write-set
// bound is covered in htm_test.go).
func TestReadCapacityAbort(t *testing.T) {
	p := machine.LargeX52()
	p.TxReadCap = 64 // tighten for test speed
	e := sim.New(p, machine.FillSocketFirst{}, 1, 13)
	s := NewSystem(e, 1<<16)
	e.Spawn(nil, func(c *sim.Ctx) {
		base := s.Alloc(c, 70*mem.WordsPerLine)
		o := s.Try(c, func() {
			for i := 0; i < 66; i++ {
				_ = s.Read(c, base+mem.Addr(i*mem.WordsPerLine))
			}
		})
		if o.Committed || o.Code != CodeCapacity || o.Hint {
			t.Errorf("outcome = %+v, want capacity abort with hint clear", o)
		}
	})
	e.Run()
}

// TestSiblingHalvesCapacity verifies the hyperthread capacity model.
func TestSiblingHalvesCapacity(t *testing.T) {
	p := machine.LargeX52()
	p.TransientEvictProb = 0 // isolate the halving
	run := func(sibling bool) Outcome {
		e := sim.New(p, machine.FillSocketFirst{}, 2, 17)
		s := NewSystem(e, 1<<22)
		var out Outcome
		e.Spawn(nil, func(c *sim.Ctx) {
			// Driver shares core 0 with worker 0 (both pinIdx 0);
			// SetIdle turns the sibling pressure on/off.
			c.SetIdle(!sibling)
			n := p.TxWriteCap/2 + 8 // over half, under full
			base := s.Alloc(c, (n+4)*mem.WordsPerLine)
			e.Spawn(c, func(w *sim.Ctx) {
				out = s.Try(w, func() {
					for i := 0; i < n; i++ {
						s.Write(w, base+mem.Addr(i*mem.WordsPerLine), 1)
					}
				})
			})
			if !sibling {
				c.SetIdle(true)
			}
			c.WaitOthers(vtime.Microsecond)
		})
		e.Run()
		return out
	}
	if o := run(false); !o.Committed {
		t.Errorf("alone: %+v, want commit (under full capacity)", o)
	}
	if o := run(true); o.Committed || o.Code != CodeCapacity {
		t.Errorf("with sibling: %+v, want capacity abort (halved bound)", o)
	}
}
