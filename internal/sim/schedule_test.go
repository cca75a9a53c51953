package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"natle/internal/machine"
	"natle/internal/vtime"
)

// scheduleEvents is how many Checkpoint returns recordSchedule keeps.
const scheduleEvents = 320

// recordSchedule runs a fixed mix of threads, all starting at time zero,
// and returns the first scheduleEvents Checkpoint returns as "ID@now"
// (now in picoseconds): six loopers whose Advance steps are pairwise
// co-prime, three below and three above the default 100 ns Slack (the
// first shares core 0 with the driver, so its steps are scaled by the
// sibling slowdown); the second looper spawns a seventh mid-run; the
// driver (ID 0) polls in WaitUntil until all seven are done. Spawn and
// pin overheads are shortened so the child joins while the others run.
func recordSchedule() string {
	steps := []vtime.Duration{
		37 * vtime.Nanosecond, 61 * vtime.Nanosecond, 89 * vtime.Nanosecond,
		113 * vtime.Nanosecond, 211 * vtime.Nanosecond, 331 * vtime.Nanosecond,
	}
	const iters = 120
	prof := machine.LargeX52()
	prof.SpawnOverhead, prof.PinOverhead = 300*vtime.Nanosecond, 200*vtime.Nanosecond
	e := New(prof, machine.FillSocketFirst{}, len(steps)+1, 11)
	var events []string
	record := func(c *Ctx) {
		if len(events) < scheduleEvents {
			events = append(events, fmt.Sprintf("%d@%d", c.ID, int64(c.Now())))
		}
	}
	finished := 0
	var looper func(step vtime.Duration, spawnAt int) func(*Ctx)
	looper = func(step vtime.Duration, spawnAt int) func(*Ctx) {
		return func(c *Ctx) {
			for j := 0; j < iters; j++ {
				if j == spawnAt {
					e.Spawn(c, looper(53*vtime.Nanosecond, -1))
				}
				c.Advance(step)
				c.Checkpoint()
				record(c)
			}
			finished++
		}
	}
	e.Spawn(nil, func(c *Ctx) {
		c.WaitUntil(173*vtime.Nanosecond, func() bool {
			record(c)
			return finished == len(steps)+1
		})
	})
	for i, step := range steps {
		spawnAt := -1
		if i == 1 {
			spawnAt = 10
		}
		e.Spawn(nil, looper(step, spawnAt))
	}
	e.Run()
	return strings.Join(events, " ")
}

// TestSchedulePinned pins the interleaving rule itself — which thread
// returns from Checkpoint next, and at what virtual time — rather than
// its consequences in the htm and service golden traces. The literal
// was captured at the commit before the engine moved from a channel
// token between goroutines to coroutines under one scheduler loop; the
// order must not depend on how many Ps the process has.
func TestSchedulePinned(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := recordSchedule()
		runtime.GOMAXPROCS(prev)
		if got == pinnedSchedule {
			continue
		}
		g, w := strings.Fields(got), strings.Fields(pinnedSchedule)
		if len(g) != len(w) {
			t.Fatalf("GOMAXPROCS=%d: %d events, want %d", procs, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("GOMAXPROCS=%d: event %d is %s, want %s", procs, i, g[i], w[i])
			}
		}
	}
}

// pinnedSchedule is recordSchedule's output at commit 808891b (channel
// token, one goroutine per simulated thread), identical at GOMAXPROCS 1
// and 4.
const pinnedSchedule = "" +
	"0@0 1@48100 1@96200 2@61000 3@89000 4@113000 2@122000 2@183000 2@244000 1@144300 " +
	"1@192400 1@240500 0@173000 3@178000 3@267000 5@211000 4@226000 4@339000 1@288600 1@336700 " +
	"1@384800 2@305000 2@366000 2@427000 6@331000 0@346000 3@356000 3@445000 5@422000 1@432900 " +
	"1@481000 1@529100 4@452000 4@565000 2@488000 2@549000 2@610000 0@519000 3@534000 3@623000 " +
	"1@577200 1@625300 1@673400 1@721500 5@633000 6@662000 4@678000 4@791000 0@692000 3@712000 " +
	"3@801000 1@769600 1@817700 1@865800 1@913900 5@844000 0@865000 3@890000 3@979000 4@904000 " +
	"4@1017000 1@962000 1@1010100 1@1058200 6@993000 0@1038000 5@1055000 3@1068000 3@1157000 1@1106300 " +
	"1@1154400 1@1202500 7@1163000 7@1216000 4@1130000 4@1243000 2@1171000 2@1232000 2@1293000 0@1211000 " +
	"3@1246000 3@1335000 1@1250600 1@1298700 1@1346800 5@1266000 7@1269000 7@1322000 7@1375000 6@1324000 " +
	"2@1354000 2@1415000 4@1356000 4@1469000 0@1384000 1@1394900 1@1443000 1@1491100 3@1424000 3@1513000 " +
	"7@1428000 7@1481000 7@1534000 2@1476000 2@1537000 5@1477000 1@1539200 1@1587300 1@1635400 0@1557000 " +
	"4@1582000 7@1587000 7@1640000 7@1693000 2@1598000 2@1659000 3@1602000 3@1691000 6@1655000 1@1683500 " +
	"1@1731600 1@1779700 5@1688000 4@1695000 4@1808000 2@1720000 2@1781000 0@1730000 7@1746000 7@1799000 " +
	"7@1852000 3@1780000 3@1869000 1@1827800 1@1875900 1@1924000 2@1842000 2@1903000 2@1964000 5@1899000 " +
	"0@1903000 7@1905000 7@1958000 7@2011000 4@1921000 4@2034000 3@1958000 3@2047000 1@1972100 1@2020200 " +
	"1@2068300 6@1986000 2@2025000 2@2086000 2@2147000 7@2064000 7@2117000 7@2170000 0@2076000 5@2110000 " +
	"1@2116400 1@2164500 1@2212600 3@2136000 3@2225000 4@2147000 4@2260000 2@2208000 2@2269000 7@2223000 " +
	"7@2276000 7@2329000 0@2249000 1@2260700 1@2308800 1@2356900 1@2405000 3@2314000 3@2403000 6@2317000 " +
	"5@2321000 2@2330000 2@2391000 2@2452000 4@2373000 7@2382000 7@2435000 7@2488000 0@2422000 1@2453100 " +
	"1@2501200 1@2549300 4@2486000 3@2492000 3@2581000 2@2513000 2@2574000 5@2532000 7@2541000 7@2594000 " +
	"7@2647000 0@2595000 1@2597400 1@2645500 1@2693600 4@2599000 4@2712000 2@2635000 2@2696000 6@2648000 " +
	"3@2670000 3@2759000 7@2700000 7@2753000 7@2806000 1@2741700 1@2789800 1@2837900 5@2743000 2@2757000 " +
	"2@2818000 0@2768000 4@2825000 4@2938000 3@2848000 3@2937000 7@2859000 7@2912000 7@2965000 2@2879000 " +
	"2@2940000 1@2886000 1@2934100 1@2982200 1@3030300 0@2941000 5@2954000 6@2979000 2@3001000 2@3062000 " +
	"7@3018000 7@3071000 7@3124000 3@3026000 3@3115000 4@3051000 4@3164000 1@3078400 1@3126500 1@3174600 " +
	"0@3114000 2@3123000 2@3184000 2@3245000 5@3165000 7@3177000 7@3230000 7@3283000 3@3204000 3@3293000 " +
	"1@3222700 1@3270800 1@3318900 1@3367000 4@3277000 0@3287000 2@3306000 2@3367000 6@3310000 7@3336000 " +
	"7@3389000 7@3442000 5@3376000 3@3382000 3@3471000 4@3390000 4@3503000 1@3415100 1@3463200 1@3511300 " +
	"2@3428000 2@3489000 2@3550000 0@3460000 7@3495000 7@3548000 7@3601000 7@3654000 1@3559400 1@3607500 " +
	"1@3655600 3@3560000 3@3649000 5@3587000 2@3611000 2@3672000 4@3616000 4@3729000 0@3633000 6@3641000 " +
	"1@3703700 1@3751800 1@3799900 7@3707000 7@3760000 7@3813000 2@3733000 2@3794000 3@3738000 3@3827000 " +
	"5@3798000 0@3806000 4@3842000 1@3848000 1@3896100 1@3944200 2@3855000 2@3916000 7@3866000 7@3919000"
