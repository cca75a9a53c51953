package harness

import (
	"encoding/json"
	"fmt"
	"runtime"

	"natle/internal/backend"
	"natle/internal/native"
	"natle/internal/scheme"
	"natle/internal/workload"
)

// The native harness: thread-count sweeps of the backend-agnostic
// workloads on the real-execution backend, and the committed
// BENCH_native.json snapshot. Native numbers are host- and
// load-dependent — the snapshot's *structure* is stable and its
// values carry a host fingerprint, which byte-comparisons exclude;
// nothing here may feed the deterministic figure pipeline.

// NativeSweepConfig describes one native thread sweep.
type NativeSweepConfig struct {
	// Base configures every trial: lock (a native-backend scheme,
	// scheme.NamesFor(native)), workload, per-thread ops (default
	// 1<<14), seed, key range, set kind, external work, retry policy
	// and faults. Each trial replaces its Threads with one entry of
	// Threads below.
	Base workload.BackendConfig
	// Threads is the goroutine sweep (default 1,2,4,8,16).
	Threads []int
	// Sockets is the native thread-group count (default 2).
	Sockets int
}

func (cfg *NativeSweepConfig) defaults() {
	if len(cfg.Threads) == 0 {
		cfg.Threads = []int{1, 2, 4, 8, 16}
	}
	if cfg.Base.Ops <= 0 {
		cfg.Base.Ops = 1 << 14
	}
}

// NativeSweep runs the sweep, one trial per thread count. Trials run
// sequentially — wall-clock measurements must not contend with each
// other for the host the way parallel simulated trials safely do.
func NativeSweep(cfg NativeSweepConfig) []*workload.BackendResult {
	cfg.defaults()
	out := make([]*workload.BackendResult, 0, len(cfg.Threads))
	for _, n := range cfg.Threads {
		bc := cfg.Base
		bc.Threads = n
		// The world is sized from the workload's own estimate: the sets
		// trials allocate structure nodes from backend words, and the
		// default capacity is not enough for long sweeps.
		w := native.NewWorld(native.Config{Seed: bc.Seed, Sockets: cfg.Sockets, Words: bc.MemWords()})
		out = append(out, workload.RunBackend(w, bc))
	}
	return out
}

// HostFingerprint identifies the machine a native snapshot was taken
// on. It is the one field of BENCH_native.json that byte-comparisons
// must exclude alongside the measured values it explains.
type HostFingerprint struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
}

// Fingerprint captures the current host.
func Fingerprint() HostFingerprint {
	return HostFingerprint{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
}

// NativeBenchPoint is one (scheme, thread count) measurement.
type NativeBenchPoint struct {
	Threads   int     `json:"threads"`
	Ops       uint64  `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Commits   uint64  `json:"commits"`
	Aborts    uint64  `json:"aborts"`
	Fallbacks uint64  `json:"fallbacks"`
}

// NativeBenchScheme is one scheme's sweep.
type NativeBenchScheme struct {
	Scheme string             `json:"scheme"`
	Points []NativeBenchPoint `json:"points"`
}

// NativeBenchWorkload is one workload's scheme sweeps.
type NativeBenchWorkload struct {
	Workload string              `json:"workload"`
	Schemes  []NativeBenchScheme `json:"schemes"`
}

// NativeBench is the BENCH_native.json shape: fixed field set and
// ordering (deterministic marshaling), host-dependent values, host
// fingerprint recorded.
type NativeBench struct {
	Backend      string                `json:"backend"`
	OpsPerThread int                   `json:"ops_per_thread"`
	Seed         int64                 `json:"seed"`
	Sockets      int                   `json:"sockets"`
	Threads      []int                 `json:"threads"`
	Host         HostFingerprint       `json:"host"`
	Workloads    []NativeBenchWorkload `json:"workloads"`
}

// NativeBenchSnapshot sweeps every native scheme over every
// backend-agnostic workload and assembles the snapshot.
func NativeBenchSnapshot(cfg NativeSweepConfig) *NativeBench {
	cfg.defaults()
	sockets := cfg.Sockets
	if sockets <= 0 {
		sockets = native.NewWorld(native.Config{}).Sockets()
	}
	out := &NativeBench{
		Backend:      string(backend.Native),
		OpsPerThread: cfg.Base.Ops,
		Seed:         cfg.Base.Seed,
		Sockets:      sockets,
		Threads:      cfg.Threads,
		Host:         Fingerprint(),
	}
	for _, wl := range workload.BackendWorkloads() {
		bw := NativeBenchWorkload{Workload: wl}
		for _, name := range scheme.NamesFor(backend.Native) {
			sc := cfg
			sc.Base.Workload = wl
			sc.Base.Lock = name
			bs := NativeBenchScheme{Scheme: name}
			for _, r := range NativeSweep(sc) {
				var commits, aborts, fallbacks uint64
				for _, s := range r.Sync {
					commits += s.TLE.Commits
					aborts += s.TLE.TotalAborts()
					fallbacks += s.TLE.Fallbacks
				}
				bs.Points = append(bs.Points, NativeBenchPoint{
					Threads:   r.Threads,
					Ops:       r.Ops,
					OpsPerSec: r.Throughput(),
					Commits:   commits,
					Aborts:    aborts,
					Fallbacks: fallbacks,
				})
			}
			bw.Schemes = append(bw.Schemes, bs)
		}
		out.Workloads = append(out.Workloads, bw)
	}
	return out
}

// MarshalNativeBench renders the snapshot as the committed JSON form
// (indented, trailing newline).
func MarshalNativeBench(b *NativeBench) ([]byte, error) {
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("harness: marshal native bench: %w", err)
	}
	return append(buf, '\n'), nil
}
