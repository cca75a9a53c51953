package scheme_test

import (
	"testing"

	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/vtime"
)

func lookup(t *testing.T, name string) *scheme.Descriptor {
	t.Helper()
	d, err := scheme.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNoSyncRunsBodyOnce(t *testing.T) {
	cs := lookup(t, "none").New(nil, nil, 0)
	n := 0
	cs.Critical(nil, func() { n++ })
	if n != 1 {
		t.Errorf("body ran %d times", n)
	}
	if cs.Name() != "none" {
		t.Error("bad name")
	}
}

func TestPlainSerializes(t *testing.T) {
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 4, 1)
	s := htm.NewSystem(e, 1<<12)
	e.Spawn(nil, func(c *sim.Ctx) {
		p := lookup(t, "lock").New(s, c, 0)
		ctr := s.Alloc(c, 1)
		for i := 0; i < 4; i++ {
			e.Spawn(c, func(w *sim.Ctx) {
				for j := 0; j < 50; j++ {
					p.Critical(w, func() {
						s.Write(w, ctr, s.Read(w, ctr)+1)
					})
				}
			})
		}
		c.WaitOthers(vtime.Microsecond)
		if got := s.Mem.Raw(ctr); got != 200 {
			t.Errorf("counter = %d, want 200", got)
		}
	})
	e.Run()
}

func TestAtomicRetries(t *testing.T) {
	e := sim.New(machine.SmallI7(), machine.FillSocketFirst{}, 2, 3)
	s := htm.NewSystem(e, 1<<12)
	e.Spawn(nil, func(c *sim.Ctx) {
		a := lookup(t, "htm-raw").New(s, c, 0)
		ctr := s.Alloc(c, 1)
		for i := 0; i < 2; i++ {
			e.Spawn(c, func(w *sim.Ctx) {
				for j := 0; j < 100; j++ {
					a.Critical(w, func() {
						s.Write(w, ctr, s.Read(w, ctr)+1)
					})
					w.AdvanceIdle(vtime.Duration(w.Intn(200)) * vtime.Nanosecond)
				}
			})
		}
		c.WaitOthers(vtime.Microsecond)
		if got := s.Mem.Raw(ctr); got != 200 {
			t.Errorf("counter = %d, want 200", got)
		}
	})
	e.Run()
}

func TestAtomicGivesUpAfterAttempts(t *testing.T) {
	e := sim.New(machine.LargeX52(), machine.FillSocketFirst{}, 1, 5)
	s := htm.NewSystem(e, 1<<12)
	e.Spawn(nil, func(c *sim.Ctx) {
		a := lookup(t, "htm-raw").Configure(scheme.Options{Attempts: 3}).New(s, c, 0)
		defer func() {
			if recover() == nil {
				t.Error("expected panic after exhausting attempts")
			}
		}()
		a.Critical(c, func() { s.Abort(c, htm.CodeExplicit) })
	})
	e.Run()
}
