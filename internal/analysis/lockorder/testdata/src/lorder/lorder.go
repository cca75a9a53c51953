//natlevet:backend native

// Package lorder is the lockorder analyzer fixture: a native-backend
// package whose seqlock read sections must acquire nothing at all,
// directly or through a same-package call.
package lorder

import (
	"sync"

	"natle/internal/backend"
)

type server struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *server) lockB() {
	s.b.Lock()
	s.b.Unlock()
}

// viaLockB reaches b only through a callee, so the finding on readVia2
// comes from the transitive pass.
func (s *server) viaLockB() { s.lockB() }

// Critical-style helpers are locks too: calling one acquires it.
type elide struct{}

func (l *elide) Critical(bc backend.Ctx, body func()) { body() }

// Outside a seqlock section, acquisitions are not this analyzer's
// business, nested or not.
func (s *server) ab() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

//natlevet:seqlock
func (s *server) read() uint64 {
	s.a.Lock() // want `seqlock read section read acquires field a`
	s.a.Unlock()
	return 0
}

//natlevet:seqlock
func (s *server) readVia() {
	s.lockB() // want `seqlock read section readVia calls lockB, which acquires field b`
}

//natlevet:seqlock
func (s *server) readVia2() {
	s.viaLockB() // want `calls viaLockB, which acquires field b`
}

//natlevet:seqlock
func readCritical(bc backend.Ctx, l *elide) {
	l.Critical(bc, func() {}) // want `seqlock read section readCritical acquires elide`
}

func literal(s *server) func() {
	//natlevet:seqlock
	return func() {
		s.a.Lock() // want `seqlock read section acquires field a`
		s.a.Unlock()
	}
}

//natlevet:seqlock
func (s *server) readClean() uint64 { return 0 }

//natlevet:seqlock
func (s *server) allowed() {
	s.a.Lock() //natlevet:allow lockorder(fixture: a sanctioned acquisition)
	s.a.Unlock()
}
