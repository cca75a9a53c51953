package main

import "encoding/json"

// The benchmark's vocabulary. BENCHMARK.json at the repository root is
// generated from these tables (`-spec`), and bench_test.go fails when
// the two drift, so a name cited by a later issue exists in exactly one
// spelling.

// runSeconds is the measuring time the driver passes as --seconds.
const runSeconds = 18

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloadSpecs = []workloadSpec{
	{"sim-sets", "closed loop, 72 simulated threads on one AVL set under natle: saturates sim handoff, htm read/write sets and the cache directory; native and service do nothing"},
	{"sim-service", "open loop on virtual time, tle, 8e6 req/s: the same sim layers driven by 17 mostly idle polling threads and short hash-map transactions with batching"},
	{"native-sets", "closed loop, 2 goroutines, AVL set, every native scheme in turn: long read-dominated sections, so per-load validation and the arena/sets cores dominate"},
	{"native-counter", "closed loop, 2 goroutines, one shared counter: write-only sections at maximum conflict, so section entry/exit and commit/abort dominate and loads are negligible"},
	{"native-service", "open loop on the wall clock, native-tle, ladder of 1e5/2e5/4e5 req/s: the only workload with dispatcher, channel queues, batching and goroutine wake-up on the path"},
}

// endToEnd is reported by every workload with tracing off. The contract
// requires each of them on each workload and never zero, which is why
// the per-scheme throughputs, the service p99, sustained_rps and
// failed_frac of the issue live in the per-layer ledger instead (see
// README.md, "Departures from the issue").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_host_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us/op", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// nativeSchemes maps the short scheme tag used in metric names to the
// registry name. Instances are only ever built through the registry, so
// deleting a scheme from internal/native does not break this package.
type nativeScheme struct{ Tag, Name string }

var nativeSchemes = []nativeScheme{
	{"mutex", "native-mutex"},
	{"tle", "native-tle"},
	{"striped", "native-tle-striped"},
	{"natle", "native-natle"},
}

// perLayer is reported by the traced run (kernels plus one trial of
// every workload). Order follows the layers bottom-up.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	add("Mops/s", "higher", "host.spin_mops_before", "host.spin_mops_after")
	add("ns", "lower", "sim.checkpoint_ns_72t", "sim.checkpoint_ns_2t")
	add("us", "lower", "sim.spawn_us")
	add("ns", "lower", "sim.host_ns_per_access")
	add("count", "lower", "sim.allocs_per_op")
	add("1/s", "higher", "sim.virtual_ops_per_s")
	add("ratio", "lower", "sim.gomaxprocs_slowdown")
	add("ns", "lower", "cache.access_l1_ns", "cache.access_l3_ns", "cache.access_remote_ns")
	add("count", "higher", "cache.l1_hits", "cache.l3_hits")
	add("count", "lower", "cache.remote_hits", "cache.remote_invals")
	add("ns", "lower", "htm.read_ns", "htm.write_ns", "htm.try_commit_ns", "htm.abort_ns")
	add("count", "lower", "htm.starts")
	add("count", "higher", "htm.commits")
	add("count", "lower", "htm.aborts_conflict", "htm.aborts_capacity")
	add("ratio", "higher", "htm.commit_ratio")
	add("ratio", "lower", "tle.attempts_per_op")
	add("count", "lower", "tle.fallbacks")
	add("count", "higher", "natle.mode_samples")
	add("ns", "lower", "arena.sim_load_ns", "arena.backend_load_ns", "arena.backend_store_ns", "arena.alloc_ns")
	add("ns", "lower", "sets.avl_contains_ns", "sets.avl_insert_ns")
	add("ns", "lower", "native.world_load_ns", "native.world_store_ns")
	for _, s := range nativeSchemes {
		p := "native." + s.Tag + "."
		add("ns", "lower", p+"section_ns_1t", p+"load_ns")
		for _, w := range []string{"sets", "counter"} {
			add("1/s", "higher", p+w+"_ops_per_s")
			add("ratio", "lower", p+w+"_abort_ratio")
			add("count", "lower", p+w+"_fallbacks")
		}
	}
	add("ns", "lower", "simmap.get_ns", "simmap.put_ns")
	add("ns", "lower", "telemetry.observe_ns", "telemetry.txcommit_ns")
	add("ns", "lower", "service.schedule_ns_per_req")
	add("ns", "lower", "service.sim_e2e_p99_ns")
	add("count", "lower", "service.sim_batches", "service.sim_max_queue")
	add("us", "lower", "service.latency_p99_us", "service.e2e_p50_us", "service.e2e_p999_us",
		"service.queue_p99_us", "service.section_p99_us")
	add("count", "higher", "service.avg_batch")
	add("count", "lower", "service.max_queue")
	add("ms", "lower", "service.drain_overrun_ms")
	add("us", "lower", "service.p99_us_at_2e5", "service.p99_us_at_4e5")
	add("ratio", "lower", "service.shed_frac_at_4e5", "service.failed_frac")
	add("1/s", "higher", "service.sustained_rps", "service.flood_goodput_rps")
	add("ratio", "lower", "trace_overhead_frac")
	return out
}

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	j, err := json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers cannot fail to marshal
	}
	return append(j, '\n')
}
