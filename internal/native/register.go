package native

import (
	"natle/internal/backend"
	"natle/internal/scheme"
	"natle/internal/tle"
)

// resolveAttempts maps the shared scheme options onto the native retry
// budget: an explicit TLE policy wins, then the raw attempt knob, then
// the native default.
func resolveAttempts(opt scheme.Options) int {
	if opt.TLE.Attempts > 0 {
		return opt.TLE.Attempts
	}
	if opt.Attempts > 0 {
		return opt.Attempts
	}
	return DefaultAttempts
}

// groupsOf reads the thread-group count off a native world (the NATLE
// factory's stand-in for the socket count).
func groupsOf(w backend.World) int {
	if nw, ok := w.(*World); ok {
		return nw.Sockets()
	}
	return 1
}

func newTLEFor(opt scheme.Options) *TLE {
	return NewTLE(resolveAttempts(opt), opt.TLE.Backoff)
}

// The native-* schemes register here, from the native package's own
// init: binaries that never import internal/native (the deterministic
// figure pipeline) keep a registry with no native entries at zero
// cost, while htmbench -backend=native links this package and gets
// them.
func init() {
	scheme.Register(&scheme.Descriptor{
		Name:    "native-mutex",
		Summary: "sync.Mutex baseline, never elided (native)",
		Mutex:   true,
		Robust:  true,
		Batch:   true,
		Native: func(_ backend.World, _ backend.Ctx, _ scheme.Options) scheme.BackendInstance {
			return NewMutex()
		},
	})
	scheme.Register(&scheme.Descriptor{
		Name:    "native-spin",
		Summary: "test-and-test-and-set spinlock (native mirror of 'lock')",
		Mutex:   true,
		Robust:  true,
		Batch:   true,
		Native: func(_ backend.World, _ backend.Ctx, _ scheme.Options) scheme.BackendInstance {
			return NewSpin()
		},
	})
	scheme.Register(&scheme.Descriptor{
		Name:    "native-tle",
		Summary: "software lock elision via a sequence lock: optimistic validated reads, CAS writer upgrade, exclusive fallback (native mirror of 'tle')",
		Opt:     scheme.Options{TLE: tle.Policy{Attempts: DefaultAttempts}},
		Mutex:   true,
		Robust:  true,
		Batch:   true,
		Native: func(_ backend.World, _ backend.Ctx, opt scheme.Options) scheme.BackendInstance {
			return newTLEFor(opt)
		},
	})
	scheme.Register(&scheme.Descriptor{
		Name:    "native-natle",
		Summary: "native-tle plus per-lock group throttling from a wall-clock EWMA of commit throughput (native mirror of 'natle')",
		Opt:     scheme.Options{TLE: tle.Policy{Attempts: DefaultAttempts}},
		Mutex:   true,
		Robust:  true,
		Batch:   true,
		Native: func(w backend.World, _ backend.Ctx, opt scheme.Options) scheme.BackendInstance {
			return NewNATLE(newTLEFor(opt), groupsOf(w), NATLEConfig{})
		},
	})
}
