package optimizer

import (
	"math/rand"
	"strings"
	"testing"

	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

func eqp(u, v string) predicate.Predicate {
	return predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))
}

// catalogFor wraps a random database into a catalog.
func catalogFor(db expr.DB) *storage.Catalog {
	cat := storage.NewCatalog()
	for name, rel := range db {
		cat.AddRelation(name, rel)
	}
	return cat
}

func TestLeafPlanScan(t *testing.T) {
	cat := storage.NewCatalog()
	cat.AddRelation("R", relation.FromRows("R", []string{"a"}, []any{1}, []any{2}))
	o := New(cat)
	p, err := o.leafPlan("R", nil)
	if err != nil || !p.IsLeaf() || p.EstRows != 2 {
		t.Fatalf("leafPlan = %+v, %v", p, err)
	}
	if _, err := o.leafPlan("NOPE", nil); err == nil {
		t.Error("unknown table must fail")
	}
	if o.cat != cat {
		t.Error("catalog not kept")
	}
}

// TestOptimizerCorrectness: for random freely-reorderable queries, the
// optimized plan's execution matches the reference algebra evaluation of
// the original expression.
func TestOptimizerCorrectness(t *testing.T) {
	rnd := rand.New(rand.NewSource(55))
	for trial := 0; trial < 120; trial++ {
		g := workload.RandomNiceGraph(rnd, 1+rnd.Intn(3), rnd.Intn(3))
		db := workload.RandomDB(rnd, g, 6)
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatal(err)
		}
		q := its[rnd.Intn(len(its))]
		want, err := q.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		o := New(catalogFor(db))
		p, tr, err := o.PlanQueryTrace(q)
		if err != nil {
			t.Fatalf("trial %d: %v\nq=%s", trial, err, q.StringWithPreds())
		}
		got, _, err := execute(o, p)
		if err != nil {
			t.Fatalf("trial %d: %v\nq=%s", trial, err, q.StringWithPreds())
		}
		if !reordered(tr) {
			t.Fatalf("trial %d: nice query should be reordered", trial)
		}
		if !got.EqualBag(want) {
			t.Fatalf("trial %d: optimizer changed the result\nq=%s", trial, q.StringWithPreds())
		}
	}
}

// TestFixedOrderCorrectness: non-reorderable queries run in the given
// order and still produce the reference result.
func TestFixedOrderCorrectness(t *testing.T) {
	rnd := rand.New(rand.NewSource(56))
	for trial := 0; trial < 80; trial++ {
		db := expr.DB{
			"X": workload.RandomRelation(rnd, "X", 6),
			"Y": workload.RandomRelation(rnd, "Y", 6),
			"Z": workload.RandomRelation(rnd, "Z", 6),
		}
		// Example 2 shape: X -> (Y - Z): not freely reorderable.
		q := expr.NewOuter(expr.NewLeaf("X"),
			expr.NewJoin(expr.NewLeaf("Y"), expr.NewLeaf("Z"), workload.RandomPredicate(rnd, "Y", "Z")),
			workload.RandomPredicate(rnd, "X", "Y"))
		want, err := q.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		o := New(catalogFor(db))
		p, tr, err := o.PlanQueryTrace(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := execute(o, p)
		if err != nil {
			t.Fatal(err)
		}
		if reordered(tr) {
			t.Fatal("Example 2 query must not be reordered")
		}
		if !got.EqualBag(want) {
			t.Fatalf("trial %d: fixed-order plan wrong\nq=%s", trial, q.StringWithPreds())
		}
	}
}

func TestFixedOrderRightOuterNormalized(t *testing.T) {
	rnd := rand.New(rand.NewSource(57))
	db := expr.DB{
		"X": workload.RandomRelation(rnd, "X", 6),
		"Y": workload.RandomRelation(rnd, "Y", 6),
	}
	q := expr.NewRightOuter(expr.NewLeaf("X"), expr.NewLeaf("Y"), eqp("X", "Y"))
	want, err := q.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	o := New(catalogFor(db))
	p, err := o.PlanFixed(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Op != expr.LeftOuter || p.Left.Table != "Y" {
		t.Fatalf("RightOuter not normalized: %s", p.Tree())
	}
	got, _, err := execute(o, p)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualBag(want) {
		t.Fatal("normalized plan wrong")
	}
}

func TestPlanFixedRejectsOtherOps(t *testing.T) {
	o := New(storage.NewCatalog())
	q := expr.NewAnti(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S"))
	if _, err := o.PlanFixed(q); err == nil {
		t.Error("antijoin plans unsupported")
	}
}

// TestExample1PlanChoice (E1, §1.2) reproduces the paper's Example 1:
// for R1 -[key] R2 ->[key] R3 with a 1-row R1 and key indexes on R2,
// R3, the association R1 - (R2 -> R3) run as written retrieves exactly
// 2N+1 tuples and (R1 - R2) -> R3 exactly 3, and the optimizer, given
// the bad association, picks the good one driven from R1.
func TestExample1PlanChoice(t *testing.T) {
	const n = 20000
	rnd := rand.New(rand.NewSource(58))
	cat := storage.NewCatalog()
	r1 := relation.New(relation.SchemeOf("R1", "a", "b"))
	r1.AppendRaw([]relation.Value{relation.Int(7), relation.Int(0)})
	cat.AddRelation("R1", r1)
	cat.AddRelation("R2", workload.UniformRelation(rnd, "R2", n, 1<<40))
	cat.AddRelation("R3", workload.UniformRelation(rnd, "R3", n, 1<<40))
	for _, tn := range []string{"R2", "R3"} {
		tb, _ := cat.Table(tn)
		if _, err := tb.BuildHashIndex("a"); err != nil {
			t.Fatal(err)
		}
	}
	bad := expr.NewJoin(expr.NewLeaf("R1"),
		expr.NewOuter(expr.NewLeaf("R2"), expr.NewLeaf("R3"), eqp("R2", "R3")),
		eqp("R1", "R2"))
	good := expr.NewOuter(
		expr.NewJoin(expr.NewLeaf("R1"), expr.NewLeaf("R2"), eqp("R1", "R2")),
		expr.NewLeaf("R3"), eqp("R2", "R3"))
	o := New(cat)
	for _, tc := range []struct {
		q    *expr.Node
		want int64
	}{{bad, 2*n + 1}, {good, 3}} {
		p, err := o.PlanFixed(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		out, c, err := execute(o, p)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 1 || c.TuplesRetrieved() != tc.want {
			t.Errorf("fixed %s: %d rows, %d tuples; want 1 row, %d tuples", p.Tree(), out.Len(), c.TuplesRetrieved(), tc.want)
		}
	}

	p, tr, err := o.PlanQueryTrace(bad)
	if err != nil {
		t.Fatal(err)
	}
	if !reordered(tr) || p.Tree() != "((R1 - R2) -> R3)" {
		t.Fatalf("planned %s (strategy %s), want ((R1 - R2) -> R3) reordered", p.Tree(), tr.Strategy)
	}
	out, c, err := execute(o, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || c.TuplesRetrieved() != 3 {
		t.Errorf("planned: %d rows, %d tuples; want 1 row, 3 tuples (plan:\n%s)", out.Len(), c.TuplesRetrieved(), p.Explain())
	}
}

func TestExplainAndTree(t *testing.T) {
	cat := storage.NewCatalog()
	cat.AddRelation("R", relation.FromRows("R", []string{"a"}, []any{1}))
	cat.AddRelation("S", relation.FromRows("S", []string{"a"}, []any{1}))
	o := New(cat)
	q := expr.NewOuter(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S"))
	p, _, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	ex := p.Explain()
	if !strings.Contains(ex, "leftouterjoin") || !strings.Contains(ex, "scan R") {
		t.Errorf("Explain = %q", ex)
	}
	if p.Tree() != "(R -> S)" {
		t.Errorf("Tree = %q", p.Tree())
	}
	// Round-trip to expression.
	back := p.ToExpr()
	if back.String() != "(R -> S)" {
		t.Errorf("ToExpr = %v", back)
	}
}

func TestOptimizeGraphErrors(t *testing.T) {
	o := New(storage.NewCatalog())
	g := workload.JoinChainGraph(2)
	if _, _, err := planGraph(o, g); err == nil {
		t.Error("missing tables must fail")
	}
	rnd := rand.New(rand.NewSource(59))
	db := workload.RandomDB(rnd, g, 3)
	o2 := New(catalogFor(db))
	if _, _, err := planGraph(o2, g); err != nil {
		t.Errorf("valid graph failed: %v", err)
	}
}

func TestAlgoString(t *testing.T) {
	for a, want := range map[Algo]string{AlgoScan: "scan", AlgoHash: "hash", AlgoIndex: "index", AlgoNL: "nestedloop"} {
		if a.String() != want {
			t.Errorf("algo %d renders %q", a, a.String())
		}
	}
	if Algo(9).String() == "" {
		t.Error("unknown algo rendering")
	}
}

// TestOptimizerUsesCheapAlgorithms: on a pure join with indexes the DP
// should not pick nested loops.
func TestOptimizerPrefersIndexOrHash(t *testing.T) {
	rnd := rand.New(rand.NewSource(60))
	cat := storage.NewCatalog()
	cat.AddRelation("A", workload.UniformRelation(rnd, "A", 1000, 100))
	cat.AddRelation("B", workload.UniformRelation(rnd, "B", 1000, 100))
	tb, _ := cat.Table("B")
	if _, err := tb.BuildHashIndex("a"); err != nil {
		t.Fatal(err)
	}
	o := New(cat)
	q := expr.NewJoin(expr.NewLeaf("A"), expr.NewLeaf("B"), eqp("A", "B"))
	p, _, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Algo == AlgoNL {
		t.Errorf("DP picked nested loops:\n%s", p.Explain())
	}
	var c exec.Counters
	it, err := o.Build(p, &c)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(it, &c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1000 {
		t.Errorf("key-key join rows = %d", out.Len())
	}
}
