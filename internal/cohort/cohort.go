// Package cohort implements a NUMA-aware cohort lock [Dice, Marathe &
// Shavit, "Lock Cohorting", TOPC 2015], the related-work technique the
// paper identifies as closest in spirit to NATLE's throttling: threads
// on the socket that holds the lock pass it among themselves (keeping
// the protected data hot in that socket's caches) before releasing it
// to another socket, trading short-term fairness for throughput.
//
// The implementation is a simplified C-TAS-TAS cohort lock: a global
// test-and-test-and-set lock plus one local lock per socket. A
// releasing thread hands the global lock to a waiting same-socket
// thread (up to MaxPass consecutive handoffs, which bounds unfairness)
// by releasing only its local lock.
//
// It exists as an extra baseline: a NUMA-aware lock without elision,
// to compare against plain locking, TLE, and NATLE.
package cohort

import (
	"natle/internal/htm"
	"natle/internal/mem"
	"natle/internal/sim"
	"natle/internal/spinlock"
)

// DefaultMaxPass bounds consecutive same-socket handoffs (the cohort
// lock papers use values in the tens to hundreds).
const DefaultMaxPass = 64

// Lock is a two-level cohort lock.
type Lock struct {
	sys     *htm.System
	global  *spinlock.Lock
	local   []*spinlock.Lock
	state   []mem.Addr // per socket: [owned flag, pass count, waiters]
	maxPass uint64
}

// Per-socket state words within the state line.
const (
	stOwned   = 0 // this socket's cohort holds the global lock
	stPasses  = 1 // consecutive local handoffs
	stWaiters = 2 // threads waiting on the local lock
)

// New allocates a cohort lock for the engine's machine.
func New(sys *htm.System, c *sim.Ctx, maxPass int) *Lock {
	if maxPass <= 0 {
		maxPass = DefaultMaxPass
	}
	sockets := sys.Eng.Prof.Sockets
	l := &Lock{
		sys:     sys,
		global:  spinlock.New(sys, c, 0),
		maxPass: uint64(maxPass),
	}
	for s := 0; s < sockets; s++ {
		l.local = append(l.local, spinlock.New(sys, c, s))
		l.state = append(l.state, sys.AllocHome(c, 3, s))
	}
	return l
}

// Name identifies the lock in benchmark output.
func (l *Lock) Name() string { return "cohort" }

// Acquire takes the lock.
func (l *Lock) Acquire(c *sim.Ctx) {
	s := c.Socket()
	st := l.state[s]
	l.sys.Add(c, st+stWaiters, 1)
	l.local[s].Acquire(c)
	l.sys.Add(c, st+stWaiters, ^uint64(0)) // -1
	if l.sys.Read(c, st+stOwned) != 0 {
		return // inherited the global lock from a cohort member
	}
	l.global.Acquire(c)
	l.sys.Write(c, st+stOwned, 1)
	l.sys.Write(c, st+stPasses, 0)
}

// Release frees the lock, preferring a same-socket handoff.
func (l *Lock) Release(c *sim.Ctx) {
	s := c.Socket()
	st := l.state[s]
	passes := l.sys.Read(c, st+stPasses)
	if passes < l.maxPass && l.sys.Read(c, st+stWaiters) > 0 {
		// Hand the global lock to a waiting cohort member by releasing
		// only the local lock.
		l.sys.Write(c, st+stPasses, passes+1)
		l.local[s].Release(c)
		return
	}
	l.sys.Write(c, st+stOwned, 0)
	l.global.Release(c)
	l.local[s].Release(c)
}

// Critical runs body under the lock.
func (l *Lock) Critical(c *sim.Ctx, body func()) {
	l.Acquire(c)
	body()
	l.Release(c)
}
