package harness

import (
	"natle/internal/expt"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/mem"
	"natle/internal/sim"
)

// LLCResult reports the Section 3.2 last-level-cache-miss experiment:
// a single thread iterates over a large array, reading one word per
// transaction with a two-line stride (to defeat the adjacent-line
// prefetcher), so almost every read misses the LLC. The paper uses the
// result — millions of misses, under 100 aborts — to prove that LLC
// misses do not themselves abort transactions.
type LLCResult struct {
	Reads      uint64
	LLCMisses  uint64 // simulated DRAM accesses
	Aborts     uint64
	Commits    uint64
	CrossReads uint64 // reads in the remote-socket variant
}

// RunLLC executes the experiment. arrayLines is the array size in
// cache lines (the paper used 1 GiB; the default figure run uses a
// smaller array with the same per-read behaviour — every read touches
// a line never seen before, so each one misses all caches).
// When remote is true, the array is homed on the other socket to also
// rule out cross-socket misses as an abort cause.
func RunLLC(arrayLines int, remote bool, seed int64) *LLCResult {
	p := machine.LargeX52()
	e := sim.New(p, machine.SingleSocket{}, 1, seed)
	sys := htm.NewSystem(e, arrayLines*mem.WordsPerLine+1024)
	res := &LLCResult{}
	home := 0
	if remote {
		home = 1
	}
	e.Spawn(nil, func(c *sim.Ctx) {
		arr := sys.AllocHome(c, arrayLines*mem.WordsPerLine, home)
		// Stride of two lines defeats the next-line prefetcher the
		// paper works around; with our cold-start directory every
		// first touch is a memory access regardless.
		for line := 0; line < arrayLines; line += 2 {
			a := arr + mem.Addr(line*mem.WordsPerLine)
			o := sys.Try(c, func() { _ = sys.Read(c, a) })
			res.Reads++
			if !o.Committed {
				res.Aborts++
			}
		}
	})
	e.Run()
	res.LLCMisses = sys.Cache.Stats.DRAMAccesses
	res.Commits = sys.Stats.Commits
	if remote {
		res.CrossReads = res.Reads
	}
	return res
}

// PlanLLC renders both variants (local and remote home) as a plan of
// two independent trials.
func PlanLLC(arrayLines int, seed int64) *expt.Plan {
	p := &expt.Plan{
		ID:     "llc",
		Title:  "Single-thread stride-2-line transactional reads over a large array",
		XLabel: "variant (0=local, 1=remote)",
		YLabel: "count",
		Notes: []string{
			"paper: ~2^23 LLC misses, <100 aborts, on a 1 GiB array",
		},
	}
	for i, remote := range []bool{false, true} {
		name := "local"
		if remote {
			name = "remote"
		}
		p.Add(expt.TrialSpec{
			Key: name,
			Run: func() expt.Outcome {
				r := RunLLC(arrayLines, remote, seed)
				x := float64(i)
				return expt.Outcome{Points: []expt.Point{
					{Series: "reads", X: x, Y: float64(r.Reads)},
					{Series: "llc-misses", X: x, Y: float64(r.LLCMisses)},
					{Series: "aborts", X: x, Y: float64(r.Aborts)},
				}}
			},
		})
	}
	return p
}
