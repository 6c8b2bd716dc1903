package optimizer

import (
	"fmt"
	"sort"

	"freejoin/internal/graph"
	"freejoin/internal/plancache"
	"freejoin/internal/predicate"
)

// optimizeGraphCached is optimizeGraph behind the plan cache. With no
// cache attached it is a plain passthrough. With one, the lookup key is
// the canonical fingerprint of the query graph plus the pushed-down
// leaf filters and the optimizer configuration, and the entry is scoped
// to the catalog's current stats epoch — any statistics or access-path
// change strands the old plan. Concurrent identical misses run the DP
// once (singleflight); only the computing caller's trace carries DP
// statistics, the others record the coalesced outcome.
//
// Cached plans are shared by every hit and must stay immutable; the
// builder never mutates a Plan (it decorates iterators), so sharing is
// safe.
func (o *Optimizer) optimizeGraphCached(g *graph.Graph, filters map[string]predicate.Predicate, tr *Trace) (*Plan, error) {
	if o.Cache == nil {
		return o.planGraph(g, filters, tr)
	}
	fp := o.fingerprintFor(g, filters)
	if tr != nil {
		tr.Fingerprint = fp.String()
	}
	v, outcome, err := o.Cache.DoAt(fp, o.cat.StatsEpoch, func() (any, error) {
		return o.planGraph(g, filters, tr)
	})
	if tr != nil {
		tr.CacheOutcome = outcome.String()
	}
	if err != nil {
		return nil, err
	}
	return v.(*Plan), nil
}

// fingerprintFor canonicalizes everything that determines the DP's
// output beyond the graph itself: pushed-down leaf filters (sorted per
// relation, conjuncts canonicalized) and planner configuration. Two
// queries collide in the cache only if all of it matches.
func (o *Optimizer) fingerprintFor(g *graph.Graph, filters map[string]predicate.Predicate) plancache.Fingerprint {
	extras := make([]string, 0, len(filters)+1)
	for rel, p := range filters {
		if p == nil {
			continue
		}
		extras = append(extras, "filter "+rel+": "+plancache.CanonPred(p))
	}
	sort.Strings(extras)
	if o.Spill {
		// Spilling changes the degradation wiring built into the plan's
		// iterators; toggling it must not reuse the other mode's entry.
		extras = append(extras, "config: spill")
	}
	switch o.Strategy {
	case "", "dp":
		// The default DP; both spellings produce the same plan.
	default:
		// A strategy toggle must never be served the other mode's plan.
		extras = append(extras, "config: strategy "+o.Strategy)
	}
	switch {
	case o.BatchSize < 0:
		// Row-mode plans carry different iterators than batch-mode plans;
		// a cached batch plan must never serve a row-mode request.
		extras = append(extras, "config: batch=off")
	case o.BatchSize > 0:
		extras = append(extras, fmt.Sprintf("config: batch=%d", o.BatchSize))
	}
	return plancache.Of(g, extras...)
}
