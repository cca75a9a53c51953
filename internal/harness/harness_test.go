package harness

import (
	"strings"
	"testing"

	"natle/internal/expt"
)

func TestFigureFormatting(t *testing.T) {
	f := &Figure{ID: "x", Title: "T", XLabel: "threads", YLabel: "y"}
	f.Add("a", 1, 10)
	f.Add("a", 2, 20)
	f.Add("b", 2, 5)
	s := f.String()
	if !strings.Contains(s, "== x: T") {
		t.Errorf("missing header in %q", s)
	}
	if !strings.Contains(s, "-") {
		t.Errorf("missing placeholder for sparse series in %q", s)
	}
	csv := f.CSV()
	want := "threads,a,b\n1,10,\n2,20,5\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestIndexSortedUnique(t *testing.T) {
	f := &Figure{}
	f.Add("a", 3, 10)
	f.Add("a", 1, 11)
	f.Add("b", 3, 12)
	f.Add("b", 2, 13)
	ix := f.index()
	want := []float64{1, 2, 3}
	if len(ix.xs) != len(want) {
		t.Fatalf("index xs = %v", ix.xs)
	}
	for i := range ix.xs {
		if ix.xs[i] != want[i] {
			t.Fatalf("index xs = %v, want %v", ix.xs, want)
		}
	}
	if y, ok := ix.series[1][2]; !ok || y != 13 {
		t.Fatalf("series b at x=2: got %v, %v", y, ok)
	}
	if _, ok := ix.series[0][2]; ok {
		t.Fatal("series a should have no point at x=2")
	}
}

// tinyScale shrinks everything for smoke tests.
func tinyScale() Scale {
	sc := QuickScale()
	sc.LargeThreads = []int{1, 36, 48}
	sc.SmallThreads = []int{1, 4}
	sc.Dur /= 2
	sc.NATLEDur /= 2
	return sc
}

func TestFig01Shape(t *testing.T) {
	f := Exec(PlanFig01(tinyScale()), expt.Options{})
	if len(f.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(f.Series))
	}
	lg := f.Series[0]
	if lg.Name != "large" {
		t.Fatalf("first series %q", lg.Name)
	}
	// Fig 1's qualitative content: speedup at 36 well above 1, and a
	// drop once the second socket is used.
	if lg.Y[1] < 4 {
		t.Errorf("large 36-thread speedup = %.1f, want > 4", lg.Y[1])
	}
	if lg.Y[2] > 0.9*lg.Y[1] {
		t.Errorf("no cross-socket drop: %.1f -> %.1f", lg.Y[1], lg.Y[2])
	}
}

func TestFig06DelayRaisesAborts(t *testing.T) {
	sc := tinyScale()
	sc.Dur /= 2
	f := Exec(PlanFig06(sc), expt.Options{})
	var abort *Series
	for i := range f.Series {
		if f.Series[i].Name == "abort rate" {
			abort = &f.Series[i]
		}
	}
	if abort == nil || len(abort.Y) < 3 {
		t.Fatal("missing abort-rate series")
	}
	first, last := abort.Y[0], abort.Y[len(abort.Y)-1]
	if last < 3*first && last < 20 {
		t.Errorf("delay did not raise abort rate: %.2f%% -> %.2f%%", first, last)
	}
}

func TestLLCMissesDoNotAbort(t *testing.T) {
	r := RunLLC(1<<15, false, 1)
	if r.Reads < 1<<14 {
		t.Fatalf("too few reads: %d", r.Reads)
	}
	if r.LLCMisses < r.Reads/2 {
		t.Errorf("LLC misses = %d for %d reads; expected almost all to miss", r.LLCMisses, r.Reads)
	}
	if r.Aborts > r.Reads/100 {
		t.Errorf("aborts = %d; LLC misses must not abort transactions", r.Aborts)
	}
	remote := RunLLC(1<<15, true, 1)
	if remote.Aborts > remote.Reads/100 {
		t.Errorf("remote-home aborts = %d; cross-socket misses must not abort", remote.Aborts)
	}
}

func TestDelegationRuns(t *testing.T) {
	sc := tinyScale()
	single := RunDelegation(sc, 8, 1)
	batched := RunDelegation(sc, 8, 4)
	if single <= 0 || batched <= 0 {
		t.Fatalf("delegation throughput: single=%.0f batched=%.0f", single, batched)
	}
	if batched < single {
		t.Errorf("batching (%.0f) should outperform single-op delegation (%.0f)", batched, single)
	}
}
