package scheme

import (
	"natle/internal/htm"
	"natle/internal/sim"
)

// htm-raw runs every critical section as a best-effort hardware
// transaction with bounded retry and no lock fallback (rawHTM). It is
// not robust: a critical section that exceeds the transactional
// capacity can never complete, so sweeps over arbitrary workloads
// should filter on Descriptor.Robust.
func init() {
	Register(&Descriptor{
		Name:    "htm-raw",
		Summary: "raw best-effort transactions, bounded retry, no lock fallback",
		Mutex:   true,
		Robust:  false,
		Make: func(sys *htm.System, _ *sim.Ctx, _ int, opt Options) Instance {
			return rawHTM{sys, opt.Attempts}
		},
	})
}

// rawHTM retries each body as a transaction up to attempts times (0 =
// practically unbounded) and panics if none commits. Its transactional
// activity shows in htm.Stats and the telemetry recorder.
type rawHTM struct {
	sys      *htm.System
	attempts int
}

func (r rawHTM) Critical(c *sim.Ctx, body func()) {
	n := r.attempts
	if n <= 0 {
		n = 1 << 20
	}
	for i := 0; i < n; i++ {
		if r.sys.Try(c, body).Committed {
			return
		}
	}
	panic("scheme: htm-raw transaction never committed")
}

// Exclusive is Critical: there is no lock to hold.
func (r rawHTM) Exclusive(c *sim.Ctx, body func()) { r.Critical(c, body) }
func (rawHTM) Name() string                        { return "htm-raw" }
func (rawHTM) Stats() Stats                        { return Stats{} }
