// Package mutation proves that the tests and types guarding the
// repository's performance invariants have teeth. It holds no code:
// each row of its table seeds one invariant's target bug into one file
// of the real tree, through the go tool's -overlay so the tree on disk
// never changes, and requires the test that guards the invariant to
// fail with the expected message. A row that stops failing means its
// guard has gone blind to the code it exists for; a row whose text no
// longer occurs in its file fails too, so update the row when the code
// it patches moves.
package mutation_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

type mutation struct {
	rule, name string
	file       string // module-relative
	old, new   string // textual replacement; old must occur exactly once
	pkg, test  string // the guard: a package (module-relative) and a test in it
	want       string // fragment of the guard's failure, or of the build error
}

// mutations gives each invariant one real bug for its guard to catch.
var mutations = []mutation{
	{
		// Every atomically shared word is a typed atomic: a plain
		// access does not compile.
		rule: "atomicsafe", name: "plain read of the histogram sum",
		file: "internal/telemetry/histogram.go",
		old:  "\ts.SumPs = h.sum.Load()\n",
		new:  "\ts.SumPs = h.sum\n",
		pkg:  "internal/telemetry", test: "TestHistogramMergeAndDelta",
		want: "cannot use h.sum",
	},
	{
		// Each word many threads write owns its cache line.
		rule: "falseshare", name: "seq shares a line with the counters",
		file: "internal/native/tle.go",
		old:  "\tseq atomic.Uint64\n\t_   [56]byte\n",
		new:  "\tseq atomic.Uint64\n",
		pkg:  "internal/native", test: "TestCacheLineLayout",
		want: "TLE: hot field seq shares cache line 0 with attempts",
	},
	{
		// Every enum member that reaches a trace or a label has a name.
		rule: "exhaustive", name: "abort code without a name",
		file: "internal/telemetry/telemetry.go",
		old:  "\tcase CodeLockHeld:\n\t\treturn \"lock-held\"\n",
		new:  "",
		pkg:  "internal/service", test: "TestEnumNames",
		want: "telemetry.Code(4) has no name",
	},
	{
		// The recorder hooks, run once per transaction, allocate
		// nothing.
		rule: "hotalloc", name: "lock table copied per event",
		file: "internal/telemetry/collector.go",
		old:  "\tblocks := c.blocks.Load().([]*lockBlock)\n\tif int(lock) >= len(blocks) || lock < 0 {\n",
		new:  "\tblocks := append([]*lockBlock(nil), c.blocks.Load().([]*lockBlock)...)\n\tif int(lock) >= len(blocks) || lock < 0 {\n",
		pkg:  "internal/telemetry", test: "TestHotPathsAllocateNothing",
		want: "TxStart: 1 allocations per call",
	},
	{
		// The seqlock read section takes no lock.
		rule: "lockorder", name: "optimistic attempt takes the shard lock",
		file: "internal/native/tle.go",
		old:  "func (t *TLE) try(c *Thread, start uint64, body func()) bool {\n",
		new:  "func (t *TLE) try(c *Thread, start uint64, body func()) bool {\n\tt.all()\n",
		pkg:  "internal/native", test: "TestSeqlockReadSectionTakesNoLock",
		want: "an optimistic attempt on a held lock did not return within",
	},
}

func TestMutationsFire(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mutations {
		t.Run(m.rule+"/"+m.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(root, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s: the text to replace occurs %d times, want 1: update the row to the code", m.file, n)
			}
			dir := t.TempDir()
			mutant := filepath.Join(dir, filepath.Base(path))
			if err := os.WriteFile(mutant, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutant}})
			if err != nil {
				t.Fatal(err)
			}
			overlayFile := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("go", "test", "-count=1", "-overlay="+overlayFile, "-run", "^"+m.test+"$", "./"+m.pkg)
			cmd.Dir = root
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			switch {
			case err == nil:
				t.Fatalf("%s passes with the mutation applied:\n%s", m.test, out)
			case !errors.As(err, &exit):
				t.Fatal(err)
			case !strings.Contains(string(out), m.want):
				t.Fatalf("%s failed, but not with %q:\n%s", m.test, m.want, out)
			}
		})
	}
}
