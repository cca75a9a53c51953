// Command figures regenerates the paper's tables and figures on the
// simulated machine and prints them as text tables (or CSV).
//
// Each figure is a declarative experiment plan (internal/expt): a grid
// of self-contained deterministic trials that a bounded worker pool
// runs across host cores. Results are assembled in plan order, so the
// output is byte-identical at any -j.
//
// Usage:
//
//	figures                  # every figure at quick scale
//	figures -scale full      # the EXPERIMENTS.md record scale
//	figures -fig fig01,fig12 # a subset
//	figures -csv             # CSV output
//	figures -j 8             # eight host workers (default GOMAXPROCS)
//	figures -progress        # per-trial progress on stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"natle/internal/expt"
	"natle/internal/harness"
)

func main() {
	var (
		scale    = flag.String("scale", "quick", "sweep scale: quick | full")
		figs     = flag.String("fig", "", "comma-separated figure ids (default: all)")
		csv      = flag.Bool("csv", false, "emit CSV instead of text tables")
		list     = flag.Bool("list", false, "list available figure ids and exit")
		jobs     = flag.Int("j", 0, "host worker pool size per figure (<= 0: GOMAXPROCS)")
		progress = flag.Bool("progress", false, "report per-trial completion on stderr")
	)
	flag.Parse()

	sc := harness.QuickScale()
	if *scale == "full" {
		sc = harness.FullScale()
	}

	plans := harness.Plans()

	if *list {
		for _, e := range plans {
			fmt.Println(e.ID)
		}
		return
	}

	want := map[string]bool{}
	if *figs != "" {
		for _, id := range strings.Split(*figs, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	ran := 0
	for _, e := range plans {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		p := e.Build(sc)
		opt := expt.Options{Workers: *jobs}
		if *progress {
			opt.Progress = func(done, total int, key string) {
				fmt.Fprintf(os.Stderr, "[%s %d/%d %s]\n", p.ID, done, total, key)
			}
		}
		f := harness.Exec(p, opt)
		if *csv {
			fmt.Printf("# %s\n%s\n", f.ID, f.CSV())
		} else {
			fmt.Println(f.String())
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v, %d trials, j=%d]\n",
			e.ID, time.Since(start).Round(time.Millisecond), len(p.Specs), expt.Workers(*jobs))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no figures matched %q (use -list)\n", *figs)
		os.Exit(2)
	}
}
