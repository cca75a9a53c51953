// Package harness regenerates the paper's tables and figures on the
// simulated machine. Each FigNN function returns a Figure whose series
// correspond to the curves in the paper; cmd/figures prints them and
// figbench_test.go wraps them as benchmarks (make bench).
//
// A Scale selects the sweep density and trial lengths: QuickScale keeps
// host time low (tests, benchmarks); FullScale is for regenerating the
// record in EXPERIMENTS.md.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"natle/internal/machine"
	"natle/internal/natle"
	"natle/internal/service"
	"natle/internal/vtime"
)

// Series is one curve: parallel X/Y vectors.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced chart or table.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Add appends a point to the named series, creating it if needed.
func (f *Figure) Add(series string, x, y float64) {
	for i := range f.Series {
		if f.Series[i].Name == series {
			f.Series[i].X = append(f.Series[i].X, x)
			f.Series[i].Y = append(f.Series[i].Y, y)
			return
		}
	}
	f.Series = append(f.Series, Series{Name: series, X: []float64{x}, Y: []float64{y}})
}

// index is a rendering accelerator built once per String/CSV call:
// the sorted union of all x values plus one x->y map per series, so a
// dense grid renders in O(series × points) instead of rescanning every
// series linearly for every table row.
type index struct {
	xs     []float64
	series []map[float64]float64
}

func (f *Figure) index() index {
	ix := index{series: make([]map[float64]float64, len(f.Series))}
	seen := map[float64]bool{}
	for i, s := range f.Series {
		m := make(map[float64]float64, len(s.X))
		for j, x := range s.X {
			m[x] = s.Y[j]
			if !seen[x] {
				seen[x] = true
				ix.xs = append(ix.xs, x)
			}
		}
		ix.series[i] = m
	}
	sort.Float64s(ix.xs)
	return ix
}

// String renders the figure as an aligned text table (rows = x values,
// one column per series).
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	ix := f.index()
	fmt.Fprintf(&b, "%14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %18s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range ix.xs {
		fmt.Fprintf(&b, "%14.6g", x)
		for _, m := range ix.series {
			if y, ok := m[x]; ok {
				fmt.Fprintf(&b, " %18.6g", y)
			} else {
				fmt.Fprintf(&b, " %18s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated values with a header row.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(f.XLabel)
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	ix := f.index()
	for _, x := range ix.xs {
		fmt.Fprintf(&b, "%g", x)
		for _, m := range ix.series {
			b.WriteByte(',')
			if y, ok := m[x]; ok {
				fmt.Fprintf(&b, "%g", y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Scale selects sweep density and trial lengths.
type Scale struct {
	LargeThreads []int // thread counts on the two-socket machine
	SmallThreads []int // thread counts on the single-socket machine

	Dur    vtime.Duration // measured trial length (TLE/plain trials)
	Warmup vtime.Duration

	NATLEDur    vtime.Duration // trial length for NATLE comparisons
	NATLEWarmup vtime.Duration
	NATLE       natle.Config

	// Service-workload knobs (the open-loop KV service plans).
	ServiceWindow vtime.Duration // arrival window per service trial
	ServiceRates  []float64      // offered-load sweep, req/virtual second
	ServiceSLO    service.SLO    // SLO-search target and rate bracket
	// ServiceOverloadSLO is the overload plan's per-request deadline
	// and brownout p99 target — deliberately tighter than ServiceSLO
	// so overload control has something to defend at 4x offered load.
	ServiceOverloadSLO vtime.Duration

	Seed int64
}

// QuickScale keeps host time small: coarse sweeps, short trials, short
// NATLE cycles (ratios preserved). Used by tests and benchmarks.
func QuickScale() Scale {
	n := natle.DefaultConfig()
	// Keep the profiling windows long enough to amortize cross-socket
	// cache migration (~100us per mode) but shorten the quanta so a
	// few cycles fit in a short trial.
	n.ProfilingLen = 300 * vtime.Microsecond
	n.QuantumLen = 100 * vtime.Microsecond
	n.WarmupThreshold = 64
	return Scale{
		LargeThreads:  []int{1, 9, 18, 36, 42, 54, 72},
		SmallThreads:  []int{1, 2, 4, 6, 8},
		Dur:           400 * vtime.Microsecond,
		Warmup:        150 * vtime.Microsecond,
		NATLEDur:      3600 * vtime.Microsecond,
		NATLEWarmup:   1300 * vtime.Microsecond,
		NATLE:         n,
		ServiceWindow: vtime.Millisecond,
		ServiceRates:  []float64{2e6, 8e6, 16e6, 24e6, 32e6},
		ServiceSLO: service.SLO{
			Target: vtime.Millisecond,
			Lo:     2e6,
			Hi:     4e7,
			Iters:  4,
		},
		ServiceOverloadSLO: 200 * vtime.Microsecond,
		Seed:               1,
	}
}

// FullScale is the EXPERIMENTS.md record scale: dense sweeps and the
// default (larger) NATLE cycle.
func FullScale() Scale {
	return Scale{
		LargeThreads:  []int{1, 2, 4, 8, 12, 18, 24, 30, 36, 37, 40, 44, 48, 54, 60, 66, 72},
		SmallThreads:  []int{1, 2, 3, 4, 5, 6, 7, 8},
		Dur:           2 * vtime.Millisecond,
		Warmup:        400 * vtime.Microsecond,
		NATLEDur:      9 * vtime.Millisecond,
		NATLEWarmup:   3300 * vtime.Microsecond,
		NATLE:         natle.DefaultConfig(),
		ServiceWindow: 4 * vtime.Millisecond,
		ServiceRates: []float64{
			1e6, 2e6, 4e6, 8e6, 12e6, 16e6, 20e6, 24e6, 28e6, 32e6, 40e6,
		},
		ServiceSLO: service.SLO{
			Target: vtime.Millisecond,
			Lo:     1e6,
			Hi:     6.4e7,
			Iters:  7,
		},
		ServiceOverloadSLO: 200 * vtime.Microsecond,
		Seed:               1,
	}
}

// large returns the big-machine profile (one place to swap for tests).
func large() *machine.Profile { return machine.LargeX52() }

// small returns the small-machine profile.
func small() *machine.Profile { return machine.SmallI7() }
