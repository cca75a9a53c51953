package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"natle/internal/harness"
)

// host is what the benchmark knows about the machine it runs on. cpus
// is a field, not a call, so tests can exercise the 1-CPU path on any
// host.
type host struct {
	cpus int
}

func thisHost() host { return host{cpus: runtime.NumCPU()} }

// fingerprint renders the host identity printed with every run: a
// host-time number means nothing without it.
func (h host) fingerprint() string {
	fp := harness.Fingerprint()
	return fmt.Sprintf("go=%s os=%s arch=%s cpus=%d gomaxprocs=%d cpu=%q",
		fp.GoVersion, fp.GOOS, fp.GOARCH, h.cpus, runtime.GOMAXPROCS(0), cpuModel())
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where the file or the field is missing.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}

// cpuSeconds returns the user+system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // RUSAGE_SELF with a valid pointer cannot fail on linux
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var spinSink uint64

// spinMops times a fixed integer loop: the noise-floor marker printed
// before and after the kernels, so a slow host is told from a slow
// layer.
func spinMops(iters int) float64 {
	x := uint64(88172645463325252)
	t := time.Now()
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	d := time.Since(t)
	spinSink += x
	return float64(iters) / d.Seconds() / 1e6
}

// referenceSpinMops is the speed of the spin loop on the reference host
// in a typical minute: 4 cycles per iteration at 3.2 GHz.
const referenceSpinMops = 800

// hostSpeed returns the function that reads the core's speed relative
// to the reference, which the end-to-end run calls before and after
// everything it times on a sim workload; a host time multiplied by the
// mean of the two is the time the same work takes at reference speed.
// The sim workloads execute on one core and never wait, so their host
// time is a number of core cycles, and the shared reference host
// changes its clock by a quarter and more for minutes at a time: ten
// runs of sim-sets in a row drifted from 61 k to 90 k ops/s, and over
// 300 consecutive trials throughput and spin speed moved together
// (r = 0.82; the median of nine trials varied by 7.9 % uncorrected, by
// 2.7 % corrected). The spin loop is a dependent multiply-add chain, a
// cycle counter for want of a real one. The native workloads are left
// alone (the function returns 1): they wait for cache lines, for each
// other and for the wall clock, and did not follow the core's speed.
func hostSpeed(workload string) func() float64 {
	if isNative(workload) {
		return func() float64 { return 1 }
	}
	return func() float64 { return spinMops(16_000_000) / referenceSpinMops }
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (exclusive
// method), the rule the acceptance check uses for spreads.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// distLine renders rep count, min, quartiles and max of a sample.
func distLine(v []float64) string {
	if len(v) == 0 {
		return "n=0"
	}
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("n=%d min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g",
		len(v), slices.Min(v), q1, q2, q3, slices.Max(v))
}
