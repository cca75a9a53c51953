package service

import (
	"fmt"

	"natle/internal/vtime"
)

// The SLO search answers the ROADMAP's north-star question directly:
// "what request rate can each scheme sustain within a 1 ms p99?".
// Sustainability at a rate means the trial at that rate sheds nothing
// and meets the latency target at the configured quantile; the search
// bisects the offered load between a floor and a ceiling. Every probe
// is a full deterministic trial, so the search result is itself a
// pure function of (Config, SLO, bounds).

// SLO is a latency service-level objective.
type SLO struct {
	// Target is the end-to-end latency bound (default 1ms).
	Target vtime.Duration
	// Quantile is the percentile the bound applies to (default 0.99).
	Quantile float64
	// Lo and Hi bracket the search in requests per virtual second
	// (defaults 1e5 and 6.4e7). Lo is assumed-but-verified
	// sustainable; Hi is the ceiling.
	Lo, Hi float64
	// Iters is the number of bisection steps after the bracket probes
	// (default 6, resolving the bracket to ~1.5% of its width).
	Iters int
}

func (s *SLO) defaults() {
	if s.Target <= 0 {
		s.Target = vtime.Millisecond
	}
	if s.Quantile <= 0 || s.Quantile >= 1 {
		s.Quantile = 0.99
	}
	if s.Lo <= 0 {
		s.Lo = 1e5
	}
	if s.Hi <= s.Lo {
		s.Hi = 6.4e7
	}
	if s.Iters <= 0 {
		s.Iters = 6
	}
}

// SLOProbe is one trial of the search.
type SLOProbe struct {
	Rate     float64        // offered load probed (req/s)
	Latency  vtime.Duration // measured latency at the SLO quantile
	Shed     uint64         // requests shed at admission
	Sustains bool           // zero shed and Latency <= Target
}

// SLOResult is the outcome of one search.
type SLOResult struct {
	Scheme string
	SLO    SLO

	// Sustained is the highest probed rate that sustained the SLO (0
	// when even the floor fails). LatencyAt is the measured quantile
	// at that rate.
	Sustained float64
	LatencyAt vtime.Duration

	Probes []SLOProbe
}

// String renders a one-line summary.
func (r SLOResult) String() string {
	if r.Sustained == 0 {
		return fmt.Sprintf("%s: UNSUSTAINABLE at %.3g req/s (%s p%g > %v or shedding)",
			r.Scheme, r.SLO.Lo, r.LatencyAt, 100*r.SLO.Quantile, r.SLO.Target)
	}
	return fmt.Sprintf("%s: sustains %.4g req/s at p%g=%v (target %v, %d probes)",
		r.Scheme, r.Sustained, 100*r.SLO.Quantile, r.LatencyAt, r.SLO.Target, len(r.Probes))
}

// SearchSLO binary-searches the maximum sustainable arrival rate for
// cfg's scheme under the SLO. cfg.Rate is ignored (each probe
// overrides it); everything else — arrival process, shards, batching,
// fault schedule — shapes what "sustainable" means.
func SearchSLO(cfg Config, slo SLO) SLOResult {
	slo.defaults()
	cfg.defaults()
	res := SLOResult{Scheme: cfg.Scheme, SLO: slo}

	probe := func(rate float64) SLOProbe {
		c := cfg
		c.Rate = rate
		r := Run(c)
		p := SLOProbe{
			Rate:    rate,
			Latency: r.E2E.Quantile(slo.Quantile),
			Shed:    r.Shed,
		}
		p.Sustains = p.Shed == 0 && p.Latency <= slo.Target
		res.Probes = append(res.Probes, p)
		return p
	}

	lo := probe(slo.Lo)
	if !lo.Sustains {
		res.LatencyAt = lo.Latency
		return res // even the floor fails: report unsustainable
	}
	res.Sustained, res.LatencyAt = lo.Rate, lo.Latency

	hi := probe(slo.Hi)
	if hi.Sustains {
		res.Sustained, res.LatencyAt = hi.Rate, hi.Latency
		return res // the ceiling holds: saturated by the bracket, not the scheme
	}

	loRate, hiRate := slo.Lo, slo.Hi
	for i := 0; i < slo.Iters; i++ {
		mid := (loRate + hiRate) / 2
		p := probe(mid)
		if p.Sustains {
			loRate = mid
			res.Sustained, res.LatencyAt = p.Rate, p.Latency
		} else {
			hiRate = mid
		}
	}
	return res
}
