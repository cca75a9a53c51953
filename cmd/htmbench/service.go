package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"natle/internal/expt"
	"natle/internal/fault"
	"natle/internal/machine"
	"natle/internal/scheme"
	"natle/internal/service"
	"natle/internal/vtime"
)

// The -service mode: the open-loop KV service instead of the
// closed-loop set sweep. Two sub-modes:
//
//   - rate sweep (default): the -lock scheme absorbs each offered
//     load in -rates, one table row per rate (latency percentiles,
//     shed share, batching);
//   - SLO search (-slo <p99 target in us>): every batch-capable
//     scheme is binary-searched for its maximum sustainable load
//     under the target; -slojson writes the result as deterministic
//     JSON (the committed BENCH_service.json snapshot).

type serviceArgs struct {
	// trial runs one rate of the sweep: simServiceTrial, or
	// nativeServiceTrial, which builds a native world for
	// service.RunNative and also returns the process CPU time that call
	// took. cpu prints that time per request as a column; it means
	// something only when trials run one at a time.
	trial       func(service.Config) (*service.Result, time.Duration)
	cpu         bool
	title       string           // machine profile name, or "backend=native"
	prof        *machine.Profile // read by the simulator only
	sweep       []float64        // offered loads when -rates is empty
	scheme      string
	arrival     string
	rates       string
	shards      int
	servers     int
	batch       int
	qcap        int
	keys        uint64 // key range (0: the service default)
	updates     int    // update share (0: the service default; negative: read-only)
	window      vtime.Duration
	seed        int64
	fault       *fault.Profile
	deadline    vtime.Duration // per-request deadline (0: none)
	brownoutSLO vtime.Duration // brownout p99 target (0: off)
	retryBudget int            // per-shard abort budget per window (0: off)
	sloUs       float64
	sloJSON     string
	jobs        int
}

// The default offered-load sweeps: quick scale on the simulator, and
// lower natively, since the frontend replays the schedule against the
// wall clock of whatever host this is.
var (
	defaultServiceRates       = []float64{2e6, 8e6, 16e6, 24e6, 32e6}
	defaultNativeServiceRates = []float64{2e5, 1e6, 4e6}
)

func (a serviceArgs) base() service.Config {
	kind, err := service.LookupArrival(a.arrival)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	cfg := service.Config{
		Prof:        a.prof,
		Seed:        a.seed,
		Scheme:      a.scheme,
		Arrival:     kind,
		Window:      a.window,
		Shards:      a.shards,
		Servers:     a.servers,
		Batch:       a.batch,
		QueueCap:    a.qcap,
		KeyRange:    a.keys,
		UpdatePct:   a.updates,
		Fault:       a.fault,
		Deadline:    a.deadline,
		RetryBudget: a.retryBudget,
	}
	if a.brownoutSLO > 0 {
		cfg.Brownout = &service.BrownoutConfig{SLO: a.brownoutSLO}
	}
	return cfg
}

func runService(a serviceArgs) {
	if a.sloUs > 0 {
		runServiceSLO(a)
		return
	}

	sweep := a.sweep
	if a.rates != "" {
		sweep = nil
		for _, f := range strings.Split(a.rates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || r <= 0 {
				fmt.Fprintf(os.Stderr, "bad rate %q\n", f)
				exit(2)
			}
			sweep = append(sweep, r)
		}
	}

	cfg := a.base()
	fmt.Printf("# %s, service: scheme=%s arrival=%s window=%v seed=%d\n",
		a.title, a.scheme, a.arrival, a.window, a.seed)
	if a.fault != nil {
		fmt.Printf("# fault schedule injected\n")
	}
	if a.deadline > 0 || a.brownoutSLO > 0 || a.retryBudget > 0 {
		fmt.Printf("# overload control: deadline=%v brownout=%v retrybudget=%d\n",
			a.deadline, a.brownoutSLO, a.retryBudget)
	}
	cpuCol := ""
	if a.cpu {
		cpuCol = fmt.Sprintf(" %10s", "cpu_us/req")
	}
	fmt.Printf("%12s %8s %7s %7s %7s %12s %12s %12s %9s %9s %4s%s\n",
		"rate(r/s)", "reqs", "shed%", "dshed%", "miss%", "p50", "p99", "p999", "avgbatch", "fallback", "bo", cpuCol)

	type trial struct {
		r   *service.Result
		cpu time.Duration
	}
	results := expt.Map(a.jobs, len(sweep), func(i int) trial {
		c := cfg
		c.Rate = sweep[i]
		r, cpu := a.trial(c)
		return trial{r, cpu}
	})
	for i, t := range results {
		r := t.r
		avgBatch := 0.0
		if r.Batches > 0 {
			avgBatch = float64(r.Completed) / float64(r.Batches)
		}
		if a.cpu {
			cpuCol = fmt.Sprintf(" %10.2f", float64(t.cpu.Nanoseconds())/1e3/float64(max(r.Requests, 1)))
		}
		fmt.Printf("%12.4g %8d %6.2f%% %6.2f%% %6.2f%% %12v %12v %12v %9.2f %9d %4d%s\n",
			sweep[i], r.Requests, 100*r.ShedFraction(),
			100*r.DeadlineShedFraction(), 100*r.DeadlineMissFraction(),
			r.E2E.Quantile(0.50), r.E2E.Quantile(0.99), r.E2E.Quantile(0.999),
			avgBatch, r.Sync.TLE.Fallbacks, r.BrownoutPeak, cpuCol)
		if r.BatchClamped {
			fmt.Printf("             # batch clamped to 1: scheme %q lacks the batch capability\n", a.scheme)
		}
	}
}

// simServiceTrial runs one service trial on the simulator; its host CPU
// is not measured (trials share the host pool).
func simServiceTrial(c service.Config) (*service.Result, time.Duration) { return service.Run(c), 0 }

// benchEntry is one scheme's SLO search result in the JSON snapshot.
// Field order is the marshaled order; nothing here depends on host
// time or parallelism, so the file is byte-stable run over run.
type benchEntry struct {
	Scheme    string  `json:"scheme"`
	Sustained float64 `json:"sustained_req_per_s"`
	LatencyUs float64 `json:"latency_us_at_sustained"`
	Probes    int     `json:"probes"`
}

type benchFile struct {
	Workload  string       `json:"workload"`
	Machine   string       `json:"machine"`
	Arrival   string       `json:"arrival"`
	WindowUs  float64      `json:"window_us"`
	TargetUs  float64      `json:"target_p99_us"`
	Quantile  float64      `json:"quantile"`
	BracketLo float64      `json:"bracket_lo_req_per_s"`
	BracketHi float64      `json:"bracket_hi_req_per_s"`
	Iters     int          `json:"bisection_iters"`
	Seed      int64        `json:"seed"`
	Schemes   []benchEntry `json:"schemes"`
}

func runServiceSLO(a serviceArgs) {
	target := vtime.Duration(a.sloUs * float64(vtime.Microsecond))
	slo := service.SLO{Target: target}
	names := scheme.BatchNames()

	fmt.Printf("# %s, service SLO search: arrival=%s window=%v target p99 <= %v\n",
		a.title, a.arrival, a.window, target)
	results := expt.Map(a.jobs, len(names), func(i int) service.SLOResult {
		cfg := a.base()
		cfg.Scheme = names[i]
		return service.SearchSLO(cfg, slo)
	})
	for _, r := range results {
		fmt.Println(r)
	}

	if a.sloJSON == "" {
		return
	}
	norm := results[0].SLO // post-defaults copy (same for every scheme)
	out := benchFile{
		Workload:  "open-loop KV service",
		Machine:   a.title,
		Arrival:   a.arrival,
		WindowUs:  a.window.Seconds() * 1e6,
		TargetUs:  norm.Target.Seconds() * 1e6,
		Quantile:  norm.Quantile,
		BracketLo: norm.Lo,
		BracketHi: norm.Hi,
		Iters:     norm.Iters,
		Seed:      a.seed,
	}
	for i, r := range results {
		out.Schemes = append(out.Schemes, benchEntry{
			Scheme:    names[i],
			Sustained: r.Sustained,
			LatencyUs: r.LatencyAt.Seconds() * 1e6,
			Probes:    len(r.Probes),
		})
	}
	f, err := os.Create(a.sloJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	werr := writeServiceBench(f, out)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintln(os.Stderr, werr)
		exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", a.sloJSON)
}

// writeServiceBench streams the marshaled SLO snapshot to w,
// propagating both marshal and write failures (a full disk must not
// exit zero with a truncated BENCH_service.json behind it).
func writeServiceBench(w io.Writer, out benchFile) error {
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal service bench: %w", err)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("write service bench: %w", err)
	}
	return nil
}
