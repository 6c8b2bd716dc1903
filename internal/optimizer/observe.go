package optimizer

import (
	"time"

	"freejoin/internal/obs"
)

// recordTrace feeds a finished optimization decision into the
// process-wide metrics: one strategy count per optimization plus the DP
// search volume. Called once per planning entry point (PlanQueryTrace,
// a PlanStatement cache hit, OptimizeWithGOJTrace) after the strategy
// is final, so an OptimizeWithGOJ run that upgrades "fixed" to "goj"
// counts once, under the strategy actually returned.
func recordTrace(tr *Trace) {
	if tr == nil {
		return
	}
	if c := obs.StrategyCounter(tr.Strategy); c != nil {
		c.Inc()
	}
	obs.DPSubsets.Add(int64(tr.Subsets))
	obs.DPCandidates.Add(int64(tr.Candidates))
}

// PhaseSpans converts a measured optimize call into its tracer spans:
// the "analyze" phase (the free-reorderability / nice-graph check, whose
// duration the trace records) followed by the "optimize" phase (the DP
// and plan construction, the remainder of the interval), laid out back
// to back from start. Callers time the optimize entry point themselves:
//
//	t0 := time.Now()
//	p, tr, err := o.PlanQueryTrace(q)
//	qt.AddSpans(optimizer.PhaseSpans(tr, t0, time.Since(t0)))
func PhaseSpans(tr *Trace, start time.Time, total time.Duration) []obs.Span {
	var analyze time.Duration
	if tr != nil {
		analyze = tr.AnalyzeTime
	}
	if analyze > total {
		analyze = total
	}
	return []obs.Span{
		{Name: "analyze", Cat: "phase", Start: start, Dur: analyze},
		{Name: "optimize", Cat: "phase", Start: start.Add(analyze), Dur: total - analyze},
	}
}
