package optimizer

import (
	"sort"
	"strconv"
	"time"

	"freejoin/internal/expr"
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
	extras := make([]string, 0, len(filters)+3)
	for rel, p := range filters {
		if p == nil {
			continue
		}
		extras = append(extras, "filter "+rel+": "+plancache.CanonPred(p))
	}
	sort.Strings(extras)
	return plancache.Of(g, o.appendConfig(extras)...)
}

// appendConfig appends the planner configuration that keys the plan
// cache beyond the query itself: the "config:" lines of a graph
// fingerprint, and the configuration part of a statement key. Both keys
// are built from it, so they never disagree about what splits a plan.
func (o *Optimizer) appendConfig(extras []string) []string {
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
	if o.BatchSize > 0 {
		extras = append(extras, "config: batch="+strconv.Itoa(o.BatchSize))
	}
	return extras
}

// maxStatementText bounds the query texts that get a statement entry. A
// protocol line may run to megabytes; a longer text is planned through
// the graph key alone, so no one entry pins more key than this.
const maxStatementText = 4 << 10

// statement is a statement entry's value: the finished plan and the
// trace fields a hit reports (strategy, fallback reason, fingerprint).
type statement struct {
	plan *Plan
	tr   Trace
}

// Statement is a query text looked up in the plan cache by
// LookupStatement: either a hit, whose plan PlanStatement serves, or the
// key a miss's plan will be cached under. The zero Statement (no cache,
// or a text over maxStatementText) is a miss with no key.
type Statement struct {
	key    string
	hit    *statement
	lookup time.Duration
}

// Hit reports whether the text's plan was cached: PlanStatement will
// serve it without the parsed query.
func (s Statement) Hit() bool { return s.hit != nil }

// LookupStatement looks up the plan cached for the query text src
// under o's configuration at the catalog's current stats epoch. It
// counts nothing, so a caller may look up before it knows whether the
// query will run; PlanStatement counts what it serves.
func (o *Optimizer) LookupStatement(src string) Statement {
	if o.Cache == nil || len(src) > maxStatementText {
		return Statement{}
	}
	start := time.Now()
	var cfg [3]string
	s := Statement{key: plancache.StatementKey(src, o.appendConfig(cfg[:0])...)}
	if v, ok := o.Cache.Get(s.key, o.cat.StatsEpoch()); ok {
		s.hit, s.lookup = v.(*statement), time.Since(start)
	}
	return s
}

// PlanStatement returns the plan for a looked-up statement. A hit is
// served from the cache: q is not needed, and the hit is counted as a
// plan-cache hit and recorded like the planning call it skips (the
// strategy counter), with a trace carrying the miss's strategy,
// fallback reason and fingerprint. A miss plans q, the query parsed
// from the statement's text, with PlanQueryTrace, and caches the plan
// under the statement's key for the stats epoch it was planned at.
// Fixed-order plans are cached too: like reordered ones, they are a
// function of the text, the configuration and the epoch. Errors are
// never cached.
func (o *Optimizer) PlanStatement(s Statement, q *expr.Node) (*Plan, *Trace, error) {
	if s.hit != nil {
		plancache.CountHit(s.lookup)
		tr := s.hit.tr
		tr.CacheOutcome = plancache.Hit.String()
		recordTrace(&tr)
		return s.hit.plan, &tr, nil
	}
	if s.key == "" {
		return o.PlanQueryTrace(q)
	}
	epoch := o.cat.StatsEpoch()
	p, tr, err := o.PlanQueryTrace(q)
	if err == nil {
		o.Cache.Put(s.key, epoch, o.cat.StatsEpoch, &statement{plan: p,
			tr: Trace{Strategy: tr.Strategy, FallbackReason: tr.FallbackReason, Fingerprint: tr.Fingerprint}})
	}
	return p, tr, err
}
