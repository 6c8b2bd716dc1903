package optimizer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/obs"
	"freejoin/internal/parse"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

// The Yannakakis acyclic fast path: the metamorphic oracle against the
// DP and fixed-order execution on dangling-heavy data, the intermediate-
// cardinality guarantee, strategy dispatch and fallback, cost-based auto
// selection, and plan-cache keying.

// yannakakisFixture builds a deterministic tree-shaped query (join chain
// core with an outerjoin chain) and its catalog.
func yannakakisFixture(t *testing.T, seed int64) (*Optimizer, *graph.Graph) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	g := workload.CoreWithTreesGraph(3, 2)
	db := workload.RandomDanglingDB(rnd, g, 12, 0.6)
	return New(catalogFor(db)), g
}

// TestMetamorphicYannakakisOracle is the acyclic edition of the
// metamorphic suite: for random TREE-shaped nice graphs (outerjoin-heavy
// included) over heavily dangling, skewed data, the full-reducer plan
// must produce exactly the bag of the classic DP plan, of a fixed-order
// execution, and of the reference algebra — and, per the Yannakakis
// guarantee, after full reduction no join-phase operator may produce
// more rows than the final result. Every instance also runs in each
// evaluator mode and under a sweep of memory grants with spill on and
// off (checkYannakakisModes).
func TestMetamorphicYannakakisOracle(t *testing.T) {
	in0, out0 := obs.SemiReduceInputRows.Value(), obs.SemiReduceOutputRows.Value()
	reducedSomewhere := false
	var sweep grantSweep
	success := 0
	for attempt := 0; success < metamorphicInstances; attempt++ {
		if attempt >= metamorphicInstances*10 {
			t.Fatalf("only %d/%d instances after %d attempts", success, metamorphicInstances, attempt)
		}
		seed := metamorphicBaseSeed + 300_000 + int64(attempt)
		rnd := rand.New(rand.NewSource(seed))
		// Trees only (the fast path's domain), skewed toward outerjoin
		// chains: up to three null-supplied relations per instance.
		g := workload.RandomTreeGraph(rnd, 1+rnd.Intn(3), rnd.Intn(4))
		if g.NumNodes() < 2 {
			continue
		}
		if a := core.AnalyzeGraph(g); !a.Free {
			t.Fatalf("seed %d: generated tree graph not certified free: %s", seed, a)
		}

		// At least half of every relation dangles; some relations nearly
		// all of it.
		db := workload.RandomDanglingDB(rnd, g, 8, 0.5+rnd.Float64()*0.45)
		cat := catalogFor(db)

		// Ground truth: the reference algebra over one implementing tree.
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatalf("seed %d: EnumerateITs: %v", seed, err)
		}
		ref, err := its[0].Eval(db)
		if err != nil {
			t.Fatalf("seed %d: Eval: %v", seed, err)
		}

		// Oracle 1: classic DP.
		oDP := New(cat)
		pDP, trDP, err := planGraph(oDP, g)
		if err != nil {
			t.Fatalf("seed %d: DP optimize: %v", seed, err)
		}
		if trDP.Strategy != "reordered" {
			t.Fatalf("seed %d: default strategy = %q; want reordered", seed, trDP.Strategy)
		}
		relDP, _, err := execute(oDP, pDP)
		if err != nil {
			t.Fatalf("seed %d: DP execute: %v", seed, err)
		}
		if !relDP.EqualBag(ref) {
			t.Fatalf("seed %d: DP execution differs from algebra result\ngraph:\n%s", seed, g)
		}

		// Oracle 2: fixed-order execution of the written tree.
		pFix, err := oDP.PlanFixed(its[0])
		if err != nil {
			t.Fatalf("seed %d: PlanFixed: %v", seed, err)
		}
		relFix, _, err := execute(oDP, pFix)
		if err != nil {
			t.Fatalf("seed %d: fixed execute: %v", seed, err)
		}
		if !relFix.EqualBag(ref) {
			t.Fatalf("seed %d: fixed-order execution differs\ntree: %s", seed, its[0].StringWithPreds())
		}

		// The candidate: forced Yannakakis. On a tree it must apply, not
		// fall back.
		oY := New(cat)
		oY.Strategy = "yannakakis"
		pY, trY, err := planGraph(oY, g)
		if err != nil {
			t.Fatalf("seed %d: yannakakis optimize: %v", seed, err)
		}
		if trY.Strategy != "yannakakis" || trY.FallbackReason != "" {
			t.Fatalf("seed %d: forced yannakakis on a tree fell back: strategy %q (%s)\ngraph:\n%s",
				seed, trY.Strategy, trY.FallbackReason, g)
		}
		relY, _, stats, err := executeAnalyzed(oY, pY)
		if err != nil {
			t.Fatalf("seed %d: yannakakis execute: %v\nplan:\n%s", seed, err, pY.Explain())
		}
		if !relY.EqualBag(ref) {
			t.Fatalf("seed %d: yannakakis bag differs from DP/algebra result: want %d rows, got %d\ngraph:\n%s\nplan:\n%s",
				seed, ref.Len(), relY.Len(), g, pY.Explain())
		}

		// The Yannakakis guarantee: after full reduction, every join-phase
		// operator's output is bounded by the final result (reducer steps
		// themselves are exempt — a partial reduction may still exceed it).
		final := stats.Stats.RowsOut
		stats.Walk(func(_ int, n *exec.StatsNode) {
			if !n.Executed() {
				return
			}
			if strings.HasPrefix(n.Label, "join ") || strings.HasPrefix(n.Label, "leftouterjoin ") {
				if n.Stats.RowsOut > final {
					t.Fatalf("seed %d: join-phase intermediate exceeds output: %q produced %d rows, final %d\nplan:\n%s",
						seed, n.Label, n.Stats.RowsOut, final, pY.Explain())
				}
			}
		})
		if in, out := obs.SemiReduceInputRows.Value(), obs.SemiReduceOutputRows.Value(); out-out0 < in-in0 {
			reducedSomewhere = true
		}
		checkYannakakisModes(t, seed, cat, g, ref, &sweep)
		success++
	}
	if sweep.answered == 0 || sweep.tripped == 0 || sweep.spooled == 0 || sweep.spoolSpills == 0 {
		t.Errorf("the grant sweep must answer, trip, spool and spill a spool at least once: %+v", sweep)
	}
	t.Logf("grant sweep: %+v", sweep)
	if obs.SemiReduceInputRows.Value() == in0 {
		t.Error("the suite never ran a reducer step; yannakakis plans did not execute")
	}
	if !reducedSomewhere {
		t.Error("no reducer step ever deleted a tuple; the dangling generator is not producing dangling tuples")
	}
	t.Logf("verified %d instances", success)
}

// grantSweep tallies checkYannakakisModes' outcomes across instances.
type grantSweep struct {
	answered, tripped int // budgeted runs that returned the bag / a typed trip
	spooled           int // plans with a shared node
	spoolSpills       int // budgeted runs in which a spool spilled
}

// checkYannakakisModes runs one oracle instance's forced-yannakakis plan
// at batch sizes {1, 7, 1024}. Unbudgeted, it returns ref and
// evaluates each distinct reducer step once. Under each memory grant,
// with spill on and off, it returns ref or a typed MemoryExceeded, and
// either way the governor drains and no spill file survives.
func checkYannakakisModes(t *testing.T, seed int64, cat *storage.Catalog, g *graph.Graph, ref *relation.Relation, sw *grantSweep) {
	t.Helper()
	dir := t.TempDir()
	for _, size := range []int{1, 7, 1024} {
		o := New(cat)
		o.Strategy = "yannakakis"
		o.BatchSize = size
		p, _, err := planGraph(o, g)
		if err != nil {
			t.Fatalf("seed %d size %d: %v", seed, size, err)
		}
		got, c, root, err := executeAnalyzed(o, p)
		if err != nil || !got.EqualBag(ref) {
			t.Fatalf("seed %d size %d: yannakakis run differs from the algebra (err %v)\nplan:\n%s", seed, size, err, p.Explain())
		}
		checkStatsTree(t, p, root, c)
		if strings.Contains(RenderStats(root), "spool #") {
			sw.spooled++
		}
		for _, limit := range []int64{2048, 512, 96} {
			for _, spill := range []bool{false, true} {
				o.Spill = spill
				gov := exec.NewGovernor(0, limit)
				ec := exec.NewExecContext(context.Background(), gov)
				if spill {
					ec.EnableSpill(exec.SpillConfig{Dir: dir})
				}
				got, _, err := executeCtx(o, ec, p)
				var re *exec.ResourceError
				switch {
				case err == nil && got.EqualBag(ref):
					sw.answered++
				case errors.As(err, &re) && re.Kind == exec.MemoryExceeded:
					sw.tripped++
				default:
					t.Fatalf("seed %d size %d grant %d spill %v: neither the bag nor a typed trip (err %v)\nplan:\n%s",
						seed, size, limit, spill, err, p.Explain())
				}
				for _, ev := range gov.Events() {
					if strings.HasPrefix(ev, "spool:") {
						sw.spoolSpills++
						break
					}
				}
				if gov.UsedRows() != 0 || gov.UsedBytes() != 0 || gov.UsedSpillBytes() != 0 {
					t.Fatalf("seed %d size %d grant %d spill %v: governor not drained: rows=%d bytes=%d spill=%d (err %v, events %q)\n%s",
						seed, size, limit, spill, gov.UsedRows(), gov.UsedBytes(), gov.UsedSpillBytes(), err, gov.Events(), p.Explain())
				}
				if files, _ := filepath.Glob(filepath.Join(dir, "ojspill-*")); len(files) != 0 {
					t.Fatalf("seed %d size %d grant %d: spill files leaked: %v", seed, size, limit, files)
				}
			}
		}
	}
}

// TestYannakakisFallsBackOnCycles: a cyclic (still nice) graph has no
// join tree; the forced strategy must fall back to the DP, record why,
// and still report the plan's true strategy.
func TestYannakakisFallsBackOnCycles(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	g := graph.New()
	for _, e := range [][2]string{{"A", "B"}, {"B", "C"}, {"A", "C"}} {
		if err := g.AddJoinEdge(e[0], e[1], workload.RandomPredicate(rnd, e[0], e[1])); err != nil {
			t.Fatal(err)
		}
	}
	db := workload.RandomDB(rnd, g, 6)
	o := New(catalogFor(db))
	o.Strategy = "yannakakis"
	p, tr, err := planGraph(o, g)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Strategy != "reordered" {
		t.Errorf("strategy = %q; want reordered (DP fallback)", tr.Strategy)
	}
	if !strings.Contains(tr.FallbackReason, "yannakakis inapplicable") {
		t.Errorf("fallback reason %q must name the yannakakis rejection", tr.FallbackReason)
	}
	if planUsesSemiReduce(p) {
		t.Error("fallback plan still contains reducer steps")
	}
}

// TestUnknownStrategyErrors: a typo'd strategy must fail loudly, not
// silently plan with the default.
func TestUnknownStrategyErrors(t *testing.T) {
	o, g := yannakakisFixture(t, 11)
	o.Strategy = "yannakaki"
	if _, _, err := planGraph(o, g); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("err = %v; want unknown strategy", err)
	}
}

// TestAutoStrategyPicksCheaper: "auto" must return exactly the cheaper
// of the two candidate plans (ties to the DP), and its execution must
// agree with both.
func TestAutoStrategyPicksCheaper(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		o, g := yannakakisFixture(t, 40+seed)
		pDP, _, err := planGraph(o, g)
		if err != nil {
			t.Fatal(err)
		}
		o.Strategy = "yannakakis"
		pY, _, err := planGraph(o, g)
		if err != nil {
			t.Fatal(err)
		}
		o.Strategy = "auto"
		pAuto, _, err := planGraph(o, g)
		if err != nil {
			t.Fatal(err)
		}
		wantYann := pY.Cost < pDP.Cost
		if gotYann := planUsesSemiReduce(pAuto); gotYann != wantYann {
			t.Errorf("seed %d: auto chose yannakakis=%v; want %v (dp cost %.0f, yannakakis cost %.0f)",
				seed, gotYann, wantYann, pDP.Cost, pY.Cost)
		}
		want, _, err := execute(o, pDP)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := execute(o, pAuto)
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualBag(got) {
			t.Errorf("seed %d: auto plan's bag differs from the DP's", seed)
		}
	}
}

// TestStrategyToggleMissesPlanCache: the strategy keys the plan cache —
// toggling it must produce a fresh fingerprint and entry, never the
// other mode's plan, and each mode must hit its own entry on repeat.
func TestStrategyToggleMissesPlanCache(t *testing.T) {
	o, q := cacheFixture(t, 78)

	_, tr1, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.CacheOutcome != "miss" {
		t.Fatalf("first optimize outcome %q; want miss", tr1.CacheOutcome)
	}

	o.Strategy = "yannakakis"
	p2, tr2, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.CacheOutcome != "miss" {
		t.Fatalf("strategy-toggled optimize outcome %q; want miss (must not reuse the DP plan)", tr2.CacheOutcome)
	}
	if tr1.Fingerprint == tr2.Fingerprint {
		t.Fatalf("strategy toggle did not change the fingerprint: %s", tr1.Fingerprint)
	}
	if !planUsesSemiReduce(p2) {
		t.Error("yannakakis plan over a tree query has no reducer steps")
	}
	if tr2.Strategy != "yannakakis" {
		t.Errorf("strategy = %q; want yannakakis", tr2.Strategy)
	}

	_, tr3, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr3.CacheOutcome != "hit" || tr3.Fingerprint != tr2.Fingerprint {
		t.Fatalf("yannakakis repeat: outcome %q fp %q; want hit on %q", tr3.CacheOutcome, tr3.Fingerprint, tr2.Fingerprint)
	}
	if tr3.Strategy != "yannakakis" {
		t.Errorf("cache-hit strategy = %q; want yannakakis (attributed from the plan shape)", tr3.Strategy)
	}
	o.Strategy = ""
	_, tr4, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr4.CacheOutcome != "hit" || tr4.Fingerprint != tr1.Fingerprint {
		t.Fatalf("default repeat: outcome %q fp %q; want hit on %q", tr4.CacheOutcome, tr4.Fingerprint, tr1.Fingerprint)
	}
	if o.Cache.Len() != 2 {
		t.Fatalf("cache holds %d entries; want one per strategy", o.Cache.Len())
	}
}

// TestYannakakisObservability: a forced yannakakis optimization counts
// under oj_optimize_strategy_total{strategy="yannakakis"}, renders
// reducer steps in EXPLAIN, and the reduction counters absorb executed
// traffic.
func TestYannakakisObservability(t *testing.T) {
	o, g := yannakakisFixture(t, 5)
	o.Strategy = "yannakakis"
	strat0 := obs.StrategyYannakakis.Value()
	in0 := obs.SemiReduceInputRows.Value()
	its, err := expr.EnumerateITs(g, true)
	if err != nil {
		t.Fatal(err)
	}
	p, tr, err := o.PlanQueryTrace(its[0])
	if err != nil {
		t.Fatal(err)
	}
	if obs.StrategyYannakakis.Value() != strat0+1 {
		t.Error("oj_optimize_strategy_total{yannakakis} did not count the optimization")
	}
	if !strings.Contains(p.Explain(), "semireduce") {
		t.Errorf("EXPLAIN must render reducer steps:\n%s", p.Explain())
	}
	if !strings.Contains(tr.String(), "strategy: yannakakis") {
		t.Errorf("trace must carry the strategy:\n%s", tr.String())
	}
	if _, _, err := execute(o, p); err != nil {
		t.Fatal(err)
	}
	if obs.SemiReduceInputRows.Value() == in0 {
		t.Error("oj_semijoin_reduce_input_rows_total did not move")
	}
}

// TestYannakakisRoundTrip: the reducer plan converts back to a logical
// expression (semijoins included) whose algebra evaluation equals the
// physical execution.
func TestYannakakisRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	g := workload.CoreWithTreesGraph(3, 2)
	db := workload.RandomDanglingDB(rnd, g, 10, 0.6)
	o := New(catalogFor(db))
	o.Strategy = "yannakakis"
	p, _, err := planGraph(o, g)
	if err != nil {
		t.Fatal(err)
	}
	if !planUsesSemiReduce(p) {
		t.Fatal("expected a reducer plan")
	}
	want, err := p.ToExpr().Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := execute(o, p)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualBag(got) {
		t.Fatalf("algebra evaluation of the round-tripped plan differs from execution\n%s", p.Explain())
	}
}

// semiReduceNodes returns the distinct reducer steps of a plan DAG.
func semiReduceNodes(p *Plan, seen map[*Plan]bool) map[*Plan]bool {
	if seen == nil {
		seen = make(map[*Plan]bool)
	}
	if p == nil || p.IsLeaf() || seen[p] {
		return seen
	}
	if p.Algo == AlgoSemiReduce {
		seen[p] = true
	}
	semiReduceNodes(p.Left, seen)
	semiReduceNodes(p.Right, seen)
	return seen
}

// checkStatsTree asserts the EXPLAIN ANALYZE shape of a lowered DAG:
// every reducer step ran exactly once and appears once, and the
// operators' own tuple counts are never negative and add up to the
// query's (a shared subtree hangs under the reader that drained it).
func checkStatsTree(t *testing.T, p *Plan, root *exec.StatsNode, c *exec.Counters) {
	t.Helper()
	var semis int
	var self int64
	root.Walk(func(_ int, n *exec.StatsNode) {
		if n.SelfTuples() < 0 {
			t.Errorf("%q retrieved %d tuples of its own", n.Label, n.SelfTuples())
		}
		self += n.SelfTuples()
		if strings.HasPrefix(n.Label, "semireduce ") {
			semis++
			if n.Stats.Opens != 1 {
				t.Errorf("%q opened %d times, want once", n.Label, n.Stats.Opens)
			}
		}
	})
	if want := len(semiReduceNodes(p, nil)); semis != want {
		t.Errorf("stats tree has %d semireduce operators, the plan %d distinct reducer steps", semis, want)
	}
	if self != c.TuplesRetrieved() {
		t.Errorf("operators' own tuples sum to %d, the query retrieved %d\n%s",
			self, c.TuplesRetrieved(), RenderStats(root))
	}
}

// TestYannakakisEvaluatesEachReductionOnce: on the served benchmark's
// dangling_tree5, the reducer DAG's shared steps are evaluated once and
// spooled to their consumers. Forced yannakakis returns the DP's bag and
// retrieves each of the five 3,000-row tables once per scan of a leaf
// reference (18,000 tuples; re-running every shared subplan per
// consumer retrieved 81,000), and every reducer step opens once.
func TestYannakakisEvaluatesEachReductionOnce(t *testing.T) {
	cat := benchmarkCatalog(t)
	q, err := parse.Expr("(((D0 -[D0.a = D1.a] D1) -[D1.a = D2.a] D2) ->[D1.a = D3.a] D3) ->[D2.a = D4.a] D4")
	if err != nil {
		t.Fatal(err)
	}
	oDP := New(cat)
	pDP, _, err := oDP.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := execute(oDP, pDP)
	if err != nil {
		t.Fatal(err)
	}
	o := New(cat)
	o.Strategy = "yannakakis"
	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Strategy != "yannakakis" {
		t.Fatalf("strategy = %q, want yannakakis", tr.Strategy)
	}
	got, c, err := execute(o, p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualBag(want) {
		t.Fatalf("yannakakis bag (%d rows) differs from the DP's (%d rows)", got.Len(), want.Len())
	}
	if n := c.TuplesRetrieved(); n != 18_000 {
		t.Errorf("retrieved %d base tuples, want 18000", n)
	}
	got, c, root, err := executeAnalyzed(o, p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualBag(want) || c.TuplesRetrieved() != 18_000 {
		t.Errorf("instrumented run: %d rows, %d tuples; want %d rows, 18000 tuples",
			got.Len(), c.TuplesRetrieved(), want.Len())
	}
	checkStatsTree(t, p, root, c)
	text := RenderStats(root)
	for id := 1; ; id++ {
		mark := fmt.Sprintf("spool #%d (shared, ", id)
		n := strings.Count(text, mark)
		if n == 0 {
			if id == 1 {
				t.Fatalf("no spool in the rendered tree:\n%s", text)
			}
			break
		}
		if n < 2 {
			t.Errorf("spool #%d has %d readers in the rendered tree, want >= 2", id, n)
		}
	}
	if spans := exec.SpanTree(root, time.Now()); len(spans) != strings.Count(text, "\n") {
		t.Errorf("%d spans for %d rendered operators", len(spans), strings.Count(text, "\n"))
	}
	t.Logf("\n%s", text)
}
