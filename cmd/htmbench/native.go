package main

// The -backend=native side of htmbench: thread sweeps of the
// backend-agnostic workloads on real goroutines over real memory,
// timed by the wall clock. Numbers are host- and load-dependent and
// never feed the deterministic figure pipeline; the committed
// BENCH_native.json snapshot (written via -benchjson) is structurally
// stable with a host fingerprint explaining its values.

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"natle/internal/fault"
	"natle/internal/harness"
	"natle/internal/native"
	"natle/internal/service"
	"natle/internal/sets"
	"natle/internal/tle"
	"natle/internal/workload"
)

type nativeArgs struct {
	lock       string
	workload   string
	set        sets.Kind
	threadsCSV string
	ops        int
	seed       int64
	keys       int
	work       int
	pol        tle.Policy
	fault      *fault.Profile
	faultName  string
	benchJSON  string
}

// nativeWorkloadHelp is the -workload flag help on the native backend;
// it is generated from the one workload registry, and a test holds the
// two in agreement (see TestNativeWorkloadFlagMatchesRegistry).
func nativeWorkloadHelp() string {
	return "native backend: workload: " + strings.Join(workload.BackendWorkloads(), " | ")
}

func runNative(a nativeArgs) {
	if !workload.IsBackendWorkload(a.workload) {
		fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n",
			a.workload, strings.Join(workload.BackendWorkloads(), " | "))
		exit(2)
	}
	var counts []int
	if a.threadsCSV != "" {
		for _, f := range strings.Split(a.threadsCSV, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad thread count %q\n", f)
				exit(2)
			}
			counts = append(counts, n)
		}
	}
	cfg := harness.NativeSweepConfig{
		Base: workload.BackendConfig{
			Lock:         a.lock,
			Workload:     a.workload,
			Ops:          a.ops,
			Seed:         a.seed,
			KeyRange:     a.keys,
			Set:          a.set,
			ExternalWork: a.work,
			TLE:          a.pol,
			Fault:        a.fault,
		},
		Threads: counts,
	}
	host := harness.Fingerprint()
	wlDesc := a.workload
	if a.workload == workload.BackendSets {
		wlDesc += " set=" + string(a.set)
	}
	fmt.Printf("# backend=native lock=%s workload=%s ops/thread=%d seed=%d\n",
		a.lock, wlDesc, a.ops, a.seed)
	if a.fault != nil {
		fmt.Printf("# fault schedule: %s\n", a.faultName)
	}
	fmt.Printf("# wall-clock timing on %s/%s, %d CPUs, %s — host-dependent, not comparable to sim figures\n",
		host.GOOS, host.GOARCH, host.CPUs, host.GoVersion)
	fmt.Printf("%8s %14s %8s %12s %12s %12s\n",
		"threads", "ops/sec", "speedup", "commits", "aborts", "fallbacks")
	var base float64
	for _, r := range harness.NativeSweep(cfg) {
		var commits, aborts, fallbacks uint64
		for _, s := range r.Sync {
			commits += s.TLE.Commits
			aborts += s.TLE.TotalAborts()
			fallbacks += s.TLE.Fallbacks
		}
		tput := r.Throughput()
		if base == 0 {
			base = tput
		}
		fmt.Printf("%8d %14.0f %8.2f %12d %12d %12d\n",
			r.Threads, tput, tput/base, commits, aborts, fallbacks)
		if a.fault != nil {
			fmt.Println("    " + r.Fault.String())
		}
	}
	if a.benchJSON != "" {
		snap := harness.NativeBenchSnapshot(cfg)
		f, err := os.Create(a.benchJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		werr := writeNativeBench(f, snap)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			exit(1)
		}
		fmt.Printf("wrote %s (%d schemes x %d workloads)\n", a.benchJSON,
			len(snap.Workloads[0].Schemes), len(snap.Workloads))
	}
}

// writeNativeBench streams the marshaled snapshot to w, propagating
// both marshal and write failures (a full disk must not exit zero
// with a truncated BENCH_native.json behind it).
func writeNativeBench(w io.Writer, snap *harness.NativeBench) error {
	buf, err := harness.MarshalNativeBench(snap)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("write native bench: %w", err)
	}
	return nil
}

// nativeServiceTrial runs one service trial on a fresh native world
// sized for its schedule and returns the process CPU time (getrusage)
// the RunNative call took: building the world and its schedule is
// outside it.
func nativeServiceTrial(c service.Config) (*service.Result, time.Duration) {
	w := native.NewWorld(native.Config{Seed: c.Seed, Words: c.NativeMemWords()})
	cpu := native.ProcessCPU()
	r := service.RunNative(w, c)
	return r, native.ProcessCPU() - cpu
}
