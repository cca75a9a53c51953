package harness

import (
	"strings"
	"testing"

	"natle/internal/expt"
)

// TestServiceOverloadFigureClaim pins the service-overload figure's
// headline: at 4x the sweep's mid rate, the overload-controlled
// service holds p99 within twice the SLO while the baseline's tail
// runs past it (or it sheds a large share of arrivals blindly).
func TestServiceOverloadFigureClaim(t *testing.T) {
	sc := QuickScale()
	res := PlanServiceOverload(sc).Execute(expt.Options{Workers: 4})
	at4 := map[string]float64{}
	for _, pt := range res.Points {
		if pt.X == 4 {
			at4[pt.Series] = pt.Y
		}
	}
	sloUs := sc.overloadSLO().Seconds() * 1e6
	bound := 2 * sloUs
	robust, ok := at4["brownout/p99"]
	if !ok {
		t.Fatalf("no brownout/p99 point at 4x (have %v)", at4)
	}
	if robust > bound {
		t.Errorf("brownout p99 %.1fus at 4x exceeds 2x SLO (%.1fus)", robust, bound)
	}
	if at4["brownout/dshed%"] <= 0 {
		t.Error("brownout mode shed nothing at 4x; control is not engaging")
	}
	if base := at4["baseline/p99"]; base <= bound && at4["baseline/shed%"] < 25 {
		t.Errorf("baseline neither collapsed (p99 %.1fus <= %.1fus) nor shed heavily (%.1f%%) at 4x — the figure has no story",
			base, bound, at4["baseline/shed%"])
	}
}

// TestPlanServiceChaosConservation executes the armed chaos plan and
// fails on any conservation note a cell emitted.
func TestPlanServiceChaosConservation(t *testing.T) {
	res := PlanServiceChaos(QuickScale()).Execute(expt.Options{Workers: 4})
	for _, n := range res.Notes {
		if strings.Contains(n, "CONSERVATION BROKEN") {
			t.Error(n)
		}
	}
	if len(res.Points) == 0 {
		t.Fatal("chaos plan produced no points")
	}
}
