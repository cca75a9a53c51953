// Command htmbench is an ad-hoc microbenchmark driver: it sweeps
// thread counts for one workload and prints throughput, speedup over
// one thread, and abort statistics.
//
// Example (the paper's Figure 1 workload, on the simulated machine):
//
//	htmbench -set avl -keys 2048 -updates 100 -lock tle
//
// -backend=native runs the backend-agnostic workloads on real
// goroutines over real memory with wall-clock timing instead
// (host-dependent numbers; see README "Native backend"):
//
//	htmbench -backend=native -lock=native-tle -workload counter
//
// The -lock help and validation are generated per backend: a native
// run never advertises sim-only schemes such as htm-raw, and vice
// versa.
//
// Fault injection: -fault <schedule> runs the sweep with a named fault
// schedule injected (on either backend); -faults runs the chaos matrix
// (every fault schedule against every robust scheme of both backends
// over the backend-agnostic workloads) and exits nonzero if any cell
// violates its invariants.
//
// Service overload control (-service, either backend): -deadline arms
// per-request deadlines with queue-wait shedding, -brownout arms the
// p99-driven brownout ladder, -retrybudget arms the per-shard abort
// budget. Only the SLO search (-slo) and the telemetry flags are
// sim-only under -service.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"natle/internal/backend"
	"natle/internal/expt"
	"natle/internal/fault"
	"natle/internal/harness"
	"natle/internal/machine"
	"natle/internal/scheme"
	"natle/internal/service"
	"natle/internal/sets"
	"natle/internal/telemetry"
	"natle/internal/tle"
	"natle/internal/vtime"
	"natle/internal/workload"
)

func main() {
	// The registry view (and so the -lock default, help, and
	// validation) depends on -backend, which must be known before the
	// flags are defined; pre-scan the command line for it.
	bk := backendArg(os.Args[1:])
	if !backend.Valid(bk) {
		fmt.Fprintf(os.Stderr, "unknown backend %q (sim | native)\n", bk)
		exit(2)
	}
	lockDefault, lockHelp := "tle", "lock: "+scheme.FlagHelpFor(backend.Sim)+
		" (batch-capable: "+scheme.BatchHelp()+")"
	if bk == backend.Native {
		lockDefault, lockHelp = "native-tle", "lock: "+scheme.FlagHelpFor(backend.Native)
	}

	var (
		backendF  = flag.String("backend", "sim", "execution backend: sim | native")
		prof      = flag.String("machine", "large", "machine profile: large | small")
		pin       = flag.String("pin", "fill", "pinning: fill | alt | none | socket0")
		setKind   = flag.String("set", "avl", setHelp())
		keys      = flag.Int64("keys", 2048, "key range [0, keys) (-service: default 4096)")
		updates   = flag.Int("updates", 100, "update percentage (-service: 0 is read-only; default 50 there)")
		extWork   = flag.Int("work", 0, "external work max iterations")
		lockKind  = flag.String("lock", lockDefault, lockHelp)
		attempts  = flag.Int("attempts", 20, "TLE transactional attempts")
		honorHint = flag.Bool("hint", false, "fall back immediately when the hint bit is clear")
		countLock = flag.Bool("countlock", false, "count lock-held attempts (disables anti-lemming)")
		searchRep = flag.Bool("searchreplace", false, "use the Fig 4 search-and-replace operation")
		durMs     = flag.Float64("ms", 2.0, "measured virtual milliseconds per trial")
		delayUs   = flag.Float64("delay", 0, "pre-commit delay in microseconds (Fig 6)")
		threads   = flag.String("threads", "", "comma-separated thread counts (default: profile sweep)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON of the last trial to this file")
		traceCap  = flag.Int("tracecap", 1<<16, "trace ring capacity in events (oldest dropped)")
		metrics   = flag.String("metrics", "", "write one telemetry summary CSV row per trial to this file")
		telem     = flag.Bool("telemetry", false, "print the per-trial telemetry summary")
		faultName = flag.String("fault", "", "inject the named fault schedule into every trial: "+strings.Join(fault.ScheduleNames(), " | "))
		chaos     = flag.Bool("faults", false, "run the chaos matrix (fault schedules x robust schemes of both backends x workloads) instead of a sweep; exits 1 on any invariant violation")
		breaker   = flag.Bool("breaker", false, "arm the TLE circuit breaker: degrade to the plain mutex under pathological abort rates, probe for recovery")
		jobs      = flag.Int("j", 0, "host worker pool size for the sweep / chaos matrix (<= 0: GOMAXPROCS)")
		progress  = flag.Bool("progress", false, "report per-trial completion on stderr")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run (runtime/pprof) to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit, after a GC (runtime/pprof), to this file")

		svc     = flag.Bool("service", false, "run the open-loop KV service workload instead of the closed-loop set sweep")
		arrival = flag.String("arrival", "poisson", "service arrival process: "+strings.Join(service.ArrivalNames(), " | "))
		rates   = flag.String("rates", "", "service offered loads in req/s, comma-separated (default: quick-scale sweep)")
		shards  = flag.Int("shards", 0, "service KV shards (0: default)")
		servers = flag.Int("servers", 0, "service server threads per shard (0: default)")
		batch   = flag.Int("batch", 0, "service max requests per critical section (0: default; clamped to 1 for schemes without the batch capability)")
		qcap    = flag.Int("qcap", 0, "service per-shard admission-queue bound (0: default)")
		sloUs   = flag.Float64("slo", 0, "service SLO search: target p99 in microseconds, searched over every batch-capable scheme (0: rate sweep of -lock instead)")
		sloJSON = flag.String("slojson", "", "write the service SLO search results as JSON to this file")

		deadlineUs  = flag.Float64("deadline", 0, "service per-request deadline in microseconds (0: none); servers shed queued requests that cannot finish in time")
		brownoutUs  = flag.Float64("brownout", 0, "service brownout p99 target in microseconds (0: off); breaching shards shrink batches, then hold their lock pessimistically, and probe for recovery")
		retryBudget = flag.Int("retrybudget", 0, "service per-shard abort budget per brownout window (0: off); exhaustion runs the rest of the window under the shard's lock")

		nativeOps = flag.Int("ops", 1<<14, "native backend: per-thread operation count")
		nativeWl  = flag.String("workload", workload.BackendCounter, nativeWorkloadHelp())
		benchJSON = flag.String("benchjson", "", "native backend: write the BENCH_native.json snapshot (every native scheme x workload) to this file")
	)
	flag.Parse()
	if backend.Kind(*backendF) != bk {
		// Only reachable when -backend hides in a place the pre-scan
		// cannot see (after a terminating "--"); keep the two in sync.
		fmt.Fprintln(os.Stderr, "-backend must precede any -- terminator")
		exit(2)
	}
	if *cpuProf != "" || *memProf != "" {
		stop, err := startProfiles(*cpuProf, *memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		stopProfile = stop
		defer stop()
	}

	var faultProf *fault.Profile
	if *faultName != "" {
		sched, err := fault.LookupSchedule(*faultName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		faultProf = &sched.Profile
	}

	if *chaos {
		cfg := harness.ChaosConfig{Seed: *seed, Parallel: *jobs}
		if *faultName != "" {
			cfg.Schedules = []string{*faultName}
		}
		cells, err := harness.RunChaos(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		report, ok := harness.ChaosReport(cells)
		fmt.Print(report)
		if !ok {
			fmt.Fprintln(os.Stderr, "chaos: invariant violations detected")
			exit(1)
		}
		return
	}

	if _, err := scheme.LookupFor(bk, *lockKind); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}

	p := machine.LargeX52()
	if *prof == "small" {
		p = machine.SmallI7()
	}

	if *svc {
		a := serviceArgs{
			trial:       simServiceTrial,
			title:       p.Name,
			prof:        p,
			sweep:       defaultServiceRates,
			scheme:      *lockKind,
			arrival:     *arrival,
			rates:       *rates,
			shards:      *shards,
			servers:     *servers,
			batch:       *batch,
			qcap:        *qcap,
			window:      vtime.Duration(*durMs * float64(vtime.Millisecond)),
			seed:        *seed,
			fault:       faultProf,
			deadline:    vtime.Duration(*deadlineUs * float64(vtime.Microsecond)),
			brownoutSLO: vtime.Duration(*brownoutUs * float64(vtime.Microsecond)),
			retryBudget: *retryBudget,
			sloUs:       *sloUs,
			sloJSON:     *sloJSON,
			jobs:        *jobs,
		}
		// The key range and update share pass through only when set
		// explicitly, so the service keeps its own defaults.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "keys":
				if *keys <= 0 {
					fmt.Fprintln(os.Stderr, "-keys must be positive")
					exit(2)
				}
				a.keys = uint64(*keys)
			case "updates":
				if *updates < 0 || *updates > 100 {
					fmt.Fprintln(os.Stderr, "-updates must be in 0..100")
					exit(2)
				}
				a.updates = *updates
				if a.updates == 0 {
					a.updates = -1 // the service's read-only share
				}
			}
		})
		if bk == backend.Native {
			// The KV service on real goroutines: the same pipeline, on a
			// fresh world per trial. Trials run one at a time —
			// wall-clock measurements must not contend with each other
			// for the host.
			if *sloUs > 0 || *traceOut != "" || *metrics != "" || *telem {
				fmt.Fprintln(os.Stderr, "-slo, -trace, -metrics and -telemetry are sim-only; the native service takes every other -service flag, -fault included")
				exit(2)
			}
			host := harness.Fingerprint()
			fmt.Printf("# wall-clock timing on %s/%s, %d CPUs, %s — host-dependent, not comparable to sim figures\n",
				host.GOOS, host.GOARCH, host.CPUs, host.GoVersion)
			a.trial, a.cpu, a.title, a.sweep, a.jobs = nativeServiceTrial, true, "backend=native", defaultNativeServiceRates, 1
		}
		runService(a)
		return
	}

	if err := checkSet(*setKind); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}

	if bk == backend.Native {
		if *traceOut != "" || *metrics != "" || *telem {
			fmt.Fprintln(os.Stderr, "-trace, -metrics and -telemetry work in the simulated sweep and the simulated -service only; the native closed loop records no telemetry")
			exit(2)
		}
		// TLE knobs pass through only when set explicitly, so native
		// schemes keep their own defaults (e.g. 8 attempts, not the
		// sim default 20).
		var pol tle.Policy
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "attempts" {
				pol.Attempts = *attempts
			}
		})
		runNative(nativeArgs{
			lock:       *lockKind,
			workload:   *nativeWl,
			set:        sets.Kind(*setKind),
			threadsCSV: *threads,
			ops:        *nativeOps,
			seed:       *seed,
			keys:       int(*keys),
			work:       *extWork,
			pol:        pol,
			fault:      faultProf,
			faultName:  *faultName,
			benchJSON:  *benchJSON,
		})
		return
	}

	var policy machine.PinPolicy
	switch *pin {
	case "fill":
		policy = machine.FillSocketFirst{}
	case "alt":
		policy = machine.Alternating{}
	case "none":
		policy = machine.Unpinned{}
	case "socket0":
		policy = machine.SingleSocket{}
	default:
		fmt.Fprintf(os.Stderr, "unknown pin policy %q\n", *pin)
		exit(2)
	}

	counts := defaultSweep(p)
	if *threads != "" {
		counts = counts[:0]
		for _, f := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad thread count %q\n", f)
				exit(2)
			}
			counts = append(counts, n)
		}
	}

	recording := *traceOut != "" || *metrics != "" || *telem
	var metricsFile *os.File
	if *metrics != "" {
		var err error
		metricsFile, err = os.Create(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		defer metricsFile.Close()
		if err := telemetry.WriteCSVHeader(metricsFile, "threads"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
	}

	pol := tle.Policy{
		Attempts:      *attempts,
		HonorHint:     *honorHint,
		CountLockHeld: *countLock,
	}
	if *breaker {
		br := tle.DefaultBreakerConfig()
		pol.Breaker = &br
	}

	fmt.Printf("# %s, %s, set=%s keys=%d upd=%d%% work=%d lock=%s\n",
		p.Name, policy.Name(), *setKind, *keys, *updates, *extWork, *lockKind)
	if faultProf != nil {
		fmt.Printf("# fault schedule: %s\n", *faultName)
	}
	fmt.Printf("%7s %14s %9s %8s %9s %9s %9s %9s\n",
		"threads", "ops/s", "speedup", "abort%", "conflict", "capacity", "lockheld", "fallback")

	// The sweep runs on a bounded host worker pool: each trial is a
	// self-contained simulation (its own engine, memory, and recorder),
	// and rows are rendered in sweep order after the pool drains, so
	// stdout is byte-identical at any -j.
	type trial struct {
		r   *workload.Result
		col *telemetry.Collector
	}
	var finished atomic.Int32
	trials := expt.Map(*jobs, len(counts), func(i int) trial {
		n := counts[i]
		var col *telemetry.Collector
		var rec telemetry.Recorder // nil keeps the no-op recorder
		if recording {
			ringCap := 0
			if *traceOut != "" {
				ringCap = *traceCap
			}
			col = telemetry.NewCollector(telemetry.Config{TraceCap: ringCap})
			rec = col
		}
		r := workload.Run(workload.Config{
			Prof:          p,
			Pin:           policy,
			Threads:       n,
			Seed:          *seed,
			SetKind:       sets.Kind(*setKind),
			KeyRange:      *keys,
			UpdatePct:     *updates,
			SearchReplace: *searchRep,
			ExternalWork:  *extWork,
			Lock:          workload.LockKind(*lockKind),
			TLE:           pol,
			Fault:         faultProf,
			Duration:      vtime.Duration(*durMs * float64(vtime.Millisecond)),
			CommitDelay:   vtime.Duration(*delayUs * float64(vtime.Microsecond)),
			Recorder:      rec,
		})
		if *progress {
			fmt.Fprintf(os.Stderr, "[%d/%d threads=%d]\n",
				finished.Add(1), len(counts), n)
		}
		return trial{r: r, col: col}
	})

	var base float64
	var lastCol *telemetry.Collector
	for i, tr := range trials {
		n, r := counts[i], tr.r
		if base == 0 {
			base = r.Throughput()
		}
		fmt.Printf("%7d %14.0f %9.2f %7.1f%% %9d %9d %9d %9d\n",
			n, r.Throughput(), r.Throughput()/base,
			100*r.HTM.AbortRate(),
			r.HTM.Aborts[1], r.HTM.Aborts[2], r.HTM.Aborts[4],
			r.Sync.TLE.Fallbacks)
		if faultProf != nil {
			fmt.Println(indent(r.Fault.String(), "    "))
		}
		if tr.col == nil {
			continue
		}
		lastCol = tr.col
		sum := tr.col.Summary()
		if *telem {
			fmt.Println(indent(sum.String(), "    "))
		}
		if metricsFile != nil {
			if err := sum.WriteCSV(metricsFile, strconv.Itoa(n)); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
		}
	}

	if *traceOut != "" && lastCol != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if err := lastCol.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace of the last trial to %s (%d events, %d dropped)\n",
			*traceOut, lastCol.Summary().TraceEvents, lastCol.TraceDropped())
	}
}

// stopProfile ends the -cpuprofile profile and writes the -memprofile
// one; it does nothing when neither flag is given.
var stopProfile = func() {}

// exit ends the profile, which os.Exit would leave unfinished (it runs
// no deferred calls), and exits with code.
func exit(code int) {
	stopProfile()
	os.Exit(code)
}

// startProfiles creates the profile files named by cpu and mem (either
// may be empty) and starts the CPU profile. The returned function stops
// the CPU profile, writes the heap profile after a garbage collection,
// and closes both files, reporting a failure on stderr.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cf, mf *os.File
	if cpu != "" {
		if cf, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return nil, err
		}
	}
	if mem != "" {
		if mf, err = os.Create(mem); err != nil {
			if cf != nil {
				pprof.StopCPUProfile()
				cf.Close()
			}
			return nil, err
		}
	}
	report := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	return func() {
		if cf != nil {
			pprof.StopCPUProfile()
			report(cf.Close())
		}
		if mf != nil {
			runtime.GC()
			report(pprof.WriteHeapProfile(mf))
			report(mf.Close())
		}
	}, nil
}

// backendArg pre-scans the raw arguments for -backend, which decides
// the registry view the -lock flag is defined against (default,
// help, validation) before flag.Parse can run.
func backendArg(args []string) backend.Kind {
	k := backend.Sim
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--" {
			break
		}
		switch {
		case a == "-backend" || a == "--backend":
			if i+1 < len(args) {
				k = backend.Kind(args[i+1])
				i++
			}
		case strings.HasPrefix(a, "-backend="):
			k = backend.Kind(strings.TrimPrefix(a, "-backend="))
		case strings.HasPrefix(a, "--backend="):
			k = backend.Kind(strings.TrimPrefix(a, "--backend="))
		}
	}
	return k
}

// setKinds lists sets.Kinds() the way the -set help and its rejection
// show them.
func setKinds() string {
	names := make([]string, 0, len(sets.Kinds()))
	for _, k := range sets.Kinds() {
		names = append(names, string(k))
	}
	return strings.Join(names, " | ")
}

// setHelp is the -set flag help; it is generated from sets.Kinds(), and
// a test holds the two in agreement (see TestSetFlagMatchesKinds).
func setHelp() string { return "set: " + setKinds() }

// checkSet rejects a -set value that names no set kind, before either
// backend's sweep starts.
func checkSet(name string) error {
	if slices.Contains(sets.Kinds(), sets.Kind(name)) {
		return nil
	}
	return fmt.Errorf("unknown set kind %q (have %s)", name, setKinds())
}

// indent prefixes every line of s (for nesting summaries under the
// sweep table rows).
func indent(s, prefix string) string {
	return prefix + strings.ReplaceAll(s, "\n", "\n"+prefix)
}

func defaultSweep(p *machine.Profile) []int {
	if p.Sockets == 1 {
		return []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	return []int{1, 2, 4, 8, 12, 18, 24, 30, 36, 37, 40, 44, 48, 54, 60, 66, 72}
}
