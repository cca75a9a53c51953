package sim

import (
	"slices"
	"testing"

	"natle/internal/machine"
	"natle/internal/vtime"
)

// born is what a thread is created with, read at the top of its function.
type born struct {
	id, core, socket int
	now              vtime.Time
	rand             uint64
}

func bornOf(c *Ctx) born {
	return born{c.ID, c.Core(), c.Socket(), c.Now(), c.Rand64()}
}

// TestSpawnTeamStartLine is the start-line law: a team is n Spawn calls
// in everything but the children's clocks, which all read the instant
// SpawnTeam returns — the parent's clock once the last child exists.
func TestSpawnTeamStartLine(t *testing.T) {
	prof := machine.LargeX52()
	cost := prof.SpawnOverhead + prof.PinOverhead
	const prelude = 3 * vtime.Microsecond // the driver's "set-up"
	for _, n := range []int{1, 2, 72} {
		// The twin makes the same threads with n plain Spawn calls.
		twin := make([]born, n)
		var twinEnd vtime.Time
		e := New(prof, machine.FillSocketFirst{}, n, 5)
		e.Spawn(nil, func(c *Ctx) {
			c.Advance(prelude)
			for i := 0; i < n; i++ {
				e.Spawn(c, func(w *Ctx) { twin[i] = bornOf(w) })
			}
			twinEnd = c.Now()
			c.WaitOthers(vtime.Microsecond)
		})
		e.Run()

		team := make([]born, n)
		var before, start, after vtime.Time
		e = New(prof, machine.FillSocketFirst{}, n, 5)
		e.Spawn(nil, func(c *Ctx) {
			c.Advance(prelude)
			before = c.Now()
			start = e.SpawnTeam(c, n, func(i int, w *Ctx) { team[i] = bornOf(w) })
			after = c.Now()
			c.WaitOthers(vtime.Microsecond)
		})
		e.Run()

		// Under fill-socket-first the first child lands on the driver's
		// core, so every spawn after it pays the sibling slowdown.
		want := before.Add(cost + vtime.Duration(n-1)*cost.Scale(prof.SiblingSlowdown))
		if start != want || after != start || twinEnd != start {
			t.Errorf("n=%d: start %v, parent after %v, twin parent %v, want all %v", n, start, after, twinEnd, want)
		}
		for i := range team { // equal in everything but the clock, which reads start
			if i == n-1 && twin[i].now != start {
				t.Errorf("n=%d: the last plain-Spawn child began at %v, want %v", n, twin[i].now, start)
			}
			if tw := twin[i]; team[i] != (born{tw.id, tw.core, tw.socket, start, tw.rand}) {
				t.Errorf("n=%d: child %d is %+v, plain Spawn makes %+v", n, i, team[i], tw)
			}
		}
	}
}

// teamEvent is one Checkpoint return.
type teamEvent struct {
	id int
	at vtime.Time
}

// recordTeam runs a driver that starts a bystander with Spawn, then a
// team of six with pairwise co-prime steps, and returns every
// Checkpoint return. The bystander's clock is behind the start line
// when the team is queued, so the run queue holds entries on both sides
// of it.
func recordTeam() (events []teamEvent, start vtime.Time) {
	steps := []vtime.Duration{37, 61, 89, 113, 211, 331}
	e := New(machine.LargeX52(), machine.FillSocketFirst{}, len(steps)+1, 11)
	e.Slack = 0 // strict ordering, so the events must come out sorted
	loop := func(c *Ctx, step vtime.Duration, iters int) {
		for j := 0; j < iters; j++ {
			c.Advance(step * vtime.Nanosecond)
			c.Checkpoint()
			events = append(events, teamEvent{c.ID, c.Now()})
		}
	}
	e.Spawn(nil, func(c *Ctx) {
		e.Spawn(c, func(w *Ctx) { loop(w, 7001, 60) })
		start = e.SpawnTeam(c, len(steps), func(i int, w *Ctx) { loop(w, steps[i], 40) })
		c.SetIdle(true)
		c.WaitOthers(vtime.Microsecond)
	})
	e.Run()
	return events, start
}

// TestSpawnTeamSchedule: one seed, one schedule; nothing of the team
// happens before the start line while the bystander runs up to it; and
// events come out in virtual-time order.
func TestSpawnTeamSchedule(t *testing.T) {
	a, start := recordTeam()
	b, _ := recordTeam()
	if !slices.Equal(a, b) {
		t.Fatalf("two runs of one seed differ:\n%v\n%v", a, b)
	}
	early := 0
	var latest vtime.Time
	for _, ev := range a {
		switch {
		case ev.at > start:
		case ev.id == 1:
			early++
		default:
			t.Errorf("team thread %d has an event at %v, not after the start line %v", ev.id, ev.at, start)
		}
		if ev.at < latest {
			t.Errorf("thread %d's event at %v is out of order: one at %v came first", ev.id, ev.at, latest)
		}
		latest = ev.at
	}
	if early == 0 {
		t.Error("the bystander did not run before the start line")
	}
	if want := 60 + 6*40; len(a) != want {
		t.Errorf("%d events, want %d", len(a), want)
	}
}
