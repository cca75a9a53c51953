package suite_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"natle/internal/analysis/load"
	"natle/internal/analysis/suite"
)

// A mutation seeds one rule's target bug into one file of the real
// tree: the file is replaced for a single load through the go tool's
// -overlay, so the tree on disk never changes.
type mutation struct {
	name     string
	file     string // module-relative
	old, new string // textual replacement; old must occur exactly once
	analyzer string
	message  string // fragment of the expected finding
}

// mutations gives every rule on the roster a real bug that it reports
// and that no test catches. A row that stops firing means its rule has
// gone blind to the code it exists for.
var mutations = []mutation{
	{
		name:     "seq shares a line with the counters",
		file:     "internal/native/tle.go",
		old:      "\tseq atomic.Uint64\n\t_   [56]byte\n",
		new:      "\tseq atomic.Uint64\n",
		analyzer: "falseshare",
		message:  "hot field seq of percpu struct TLE shares cache line 0",
	},
	{
		name:     "plain read of the histogram sum",
		file:     "internal/telemetry/histogram.go",
		old:      "\ts.SumPs = atomic.LoadUint64(&h.sum)\n",
		new:      "\ts.SumPs = h.sum\n",
		analyzer: "atomicsafe",
		message:  "plain read of sum",
	},
	{
		name:     "abort code without a name",
		file:     "internal/telemetry/telemetry.go",
		old:      "\tcase CodeLockHeld:\n\t\treturn \"lock-held\"\n",
		new:      "",
		analyzer: "exhaustive",
		message:  "switch over telemetry.Code is missing cases CodeLockHeld",
	},
	{
		name:     "closure per commit event",
		file:     "internal/telemetry/collector.go",
		old:      "\tc.commitLat.Observe(dur)\n",
		new:      "\tfunc() { c.commitLat.Observe(dur) }()\n",
		analyzer: "hotalloc",
		message:  "hot path TxCommit: function literal allocates a closure",
	},
	{
		name:     "optimistic attempt takes the shard lock",
		file:     "internal/native/tle.go",
		old:      "func (t *TLE) try(c *Thread, start uint64, body func()) bool {\n",
		new:      "func (t *TLE) try(c *Thread, start uint64, body func()) bool {\n\tt.all()\n",
		analyzer: "lockorder",
		message:  "seqlock read section try calls all, which acquires field mu",
	},
}

func TestMutationsFire(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	for _, m := range mutations {
		covered[m.analyzer] = true
		t.Run(m.analyzer+"/"+m.name, func(t *testing.T) {
			path := filepath.Join(root, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s: the text to replace occurs %d times, want 1: update the row to the code", m.file, n)
			}
			overlay := map[string][]byte{path: []byte(strings.Replace(string(src), m.old, m.new, 1))}
			pkgs, err := load.Packages(root, overlay, "./"+filepath.Dir(m.file))
			if err != nil {
				t.Fatal(err)
			}
			findings, err := suite.Check(pkgs, suite.Analyzers)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range findings {
				if f.Pos.Filename == path && f.Analyzer == m.analyzer && strings.Contains(f.Message, m.message) {
					return
				}
			}
			t.Errorf("no %s finding containing %q in %s; got %v", m.analyzer, m.message, m.file, findings)
		})
	}
	for _, a := range suite.Analyzers {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no mutation: show a bug it catches that no test does, or delete it", a.Name)
		}
	}
}
