GO ?= go

.PHONY: all build test vet lint race race-executor native-check check bench bench-layers figures figures-quick chaos chaos-native bench-snapshot bench-check service-check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint fails on unformatted files (gofmt -l output is non-empty) and on
# vet findings. The performance invariants a linter cannot see are held
# by types and plain tests instead (see README "Invariants"): typed
# atomics, the cache-line layout tests, the allocation tests, the seqlock
# liveness test and the enum name test, each proven by a seeded bug in
# internal/mutation.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

race:
	$(GO) test -race -timeout 30m ./...

# race-executor focuses the race detector on the parallel trial
# executor and everything it fans out over host goroutines, and on what
# every one of those goroutines runs: the simulator's coroutine switches
# (with its crash/stop test), the htm layer directly above them, and
# the service, whose servers' idle conditions run on whichever coroutine
# the scheduler is polling them from.
race-executor:
	$(GO) test -race -timeout 30m ./internal/sim ./internal/htm ./internal/service ./internal/expt ./internal/harness ./internal/workload

# native-check gates the real-execution backend: the native lock
# suite, the native KV service, the cross-backend conformance tests and
# the driver's allocation-free op loop under the race detector (real
# goroutines on real memory are exactly what -race is for) with
# GOMAXPROCS pinned above 1 so they interleave for real, one iteration
# of the native section and driver benchmarks (they must build and
# finish; nothing is asserted about their timing), and an htmbench
# smoke run that must report nonzero native throughput.
NATIVE_MULTI_PROCS ?= 4
native-check:
	GOMAXPROCS=$(NATIVE_MULTI_PROCS) $(GO) test -race -timeout 15m ./internal/native ./internal/service
	GOMAXPROCS=$(NATIVE_MULTI_PROCS) $(GO) test -race -timeout 15m -run 'TestCrossBackendConformance|TestSimWorldMatchesKind|TestRunBackendAllocatesNothingPerOperation|TestMemWords' ./internal/workload
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/native ./internal/workload
	@out=$$($(GO) run ./cmd/htmbench -backend=native -lock=native-tle -threads 2 -ops 4096); \
	echo "$$out"; \
	echo "$$out" | awk 'NR>3 && $$2+0 > 0 { ok = 1 } END { exit !ok }' || \
		{ echo "native smoke run reported zero throughput"; exit 1; }

# The full gate: everything must build, lint clean (gofmt + vet), pass
# under the race detector (the invariant tests and the mutation table
# that proves them among them), survive ten seconds of fuzzing the structure
# cores with attempts that die at every access and ten of fuzzing sets
# trials on worlds of exactly MemWords words (go test runs only the
# seed corpora), and run one iteration of the htm, arena, sets and
# telemetry per-layer benchmarks (they must build and finish; nothing is
# asserted about their timing; native-check does the same for native
# and workload). The end-to-end benchmark in bench/ is its own module
# over the internal packages: it is built, vetted and tested, so a
# rename of an API it imports, or a change to workload.Run that breaks
# its sim-sets trial or that trial's determinism check, fails here. Its
# TestUnregisteredSchemeIsSkipped is skipped and stays red: it expects
# every native scheme bench/spec.go lists to be registered, but
# native-tle-striped no longer is, and fixing it means retiring the
# striped tag from bench/ (ROADMAP 6(a)).
check:
	$(GO) build ./...
	cd bench && $(GO) vet ./...
	cd bench && $(GO) test -skip '^TestUnregisteredSchemeIsSkipped$$' ./...
	$(MAKE) lint
	$(GO) test -race -timeout 30m ./...
	$(GO) test -run '^$$' -fuzz FuzzDeadAttempt -fuzztime 10s ./internal/sets
	$(GO) test -run '^$$' -fuzz FuzzMemWords -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/htm ./internal/arena ./internal/sets ./internal/telemetry
	$(MAKE) native-check

# bench runs one iteration of BenchmarkPlans: every plan in
# harness.Plans() regenerates its figure or table at a trimmed sweep
# scale, one sub-benchmark per plan ID (BenchmarkPlans/fig01, ...), with
# the figure's shape metric (such as cliff-72v36) beside ns/op.
bench:
	$(GO) test -run '^$$' -bench '^BenchmarkPlans$$' -benchtime 1x ./internal/harness

# bench-layers is the per-package ledger under the figure-sized runs of
# `make bench`: ns/op and allocs/op of the simulator's hand-off, early
# return, spawn and idle poll, of one cache-model access by the path it
# takes, of one htm transaction by shape and of one aborted half-way
# down a tree descent, of one arena load, store and allocation through
# the sim and the backend adapter, of one contains, insert and delete
# per set kind through Set and BackendSet, of one telemetry
# histogram observation and collector commit event, of generating a
# service schedule, of the service pipeline per request on either
# backend, of one native critical section by scheme and shape, of the
# backend driver's closed loop per operation, and of one simulated
# trial's set-up by thread count.
bench-layers:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim ./internal/cache ./internal/htm ./internal/arena ./internal/sets ./internal/telemetry ./internal/service ./internal/native ./internal/workload

# chaos runs the one fault-injection matrix: every named fault
# schedule against every robust scheme of both backends over every
# backend-agnostic workload, asserting the conservation laws and the
# fault-free reference checksum in every cell.
chaos:
	$(GO) run ./cmd/htmbench -faults

# chaos-native runs the chaos tests under the race detector with
# GOMAXPROCS above 1: the native fault adapter drives real goroutines,
# which is exactly what -race exists to check.
chaos-native:
	GOMAXPROCS=$(NATIVE_MULTI_PROCS) $(GO) test -race -timeout 15m -v -run 'TestChaos|TestCrossBackendChaos|TestNativeSweepFault' ./internal/harness

# bench-snapshot regenerates the committed benchmark snapshots. The
# service half is deterministic — a diff in BENCH_service.json after
# this target means the performance model actually changed. The
# native half (BENCH_native.json) is wall-clock and host-dependent:
# its structure is stable, its values are not, and byte-comparisons
# must exclude the measured fields alongside the "host" fingerprint
# that explains them.
bench-snapshot:
	$(GO) run ./cmd/htmbench -service -slo 1000 -slojson BENCH_service.json
	$(GO) run ./cmd/htmbench -backend=native -threads 1,2,4,8,16 -benchjson BENCH_native.json

# bench-check is the structural gate on the committed snapshots: both
# BENCH_*.json files must parse into their Go shapes with no unknown
# fields and carry the registry's scheme grids — catching a registry
# change that forgot `make bench-snapshot` without comparing any
# host-dependent value.
bench-check:
	$(GO) test -run 'TestCommittedServiceBenchShape' -count=1 ./cmd/htmbench
	$(GO) test -run 'TestCommittedNativeBenchParses' -count=1 ./internal/harness

# service-check regenerates the service figure family at -j 1 and
# -j 4 and fails on any byte difference, regenerates the service half of
# the benchmark snapshot and fails unless it is the committed
# BENCH_service.json byte for byte (a diff means the performance model
# changed: re-pin it with `make bench-snapshot` and say why). CI runs
# this as its own job.
service-check:
	$(GO) run ./cmd/figures -fig service-latency,service-slo,service-arrivals,service-chaos,service-overload -j 1 > /tmp/service_j1.txt
	$(GO) run ./cmd/figures -fig service-latency,service-slo,service-arrivals,service-chaos,service-overload -j 4 > /tmp/service_j4.txt
	cmp /tmp/service_j1.txt /tmp/service_j4.txt
	$(GO) run ./cmd/htmbench -service -slo 1000 -slojson /tmp/service_bench.json > /dev/null
	cmp /tmp/service_bench.json BENCH_service.json

figures:
	$(GO) run ./cmd/figures

# figures-quick smoke-runs the full figure menu at quick scale on the
# parallel executor (one worker per host core, default -j).
figures-quick:
	$(GO) run ./cmd/figures -scale quick -progress

clean:
	$(GO) clean ./...
