package optimizer

import (
	"math/rand"
	"strings"
	"testing"

	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

func restOn(rel string, v int64) predicate.Predicate {
	return predicate.EqConst(relation.A(rel, "a"), relation.Int(v))
}

// TestPlanQueryCorrectness: the full pipeline (simplify + pushdown + DP +
// filters) matches reference evaluation on randomized restricted queries.
func TestPlanQueryCorrectness(t *testing.T) {
	rnd := rand.New(rand.NewSource(71))
	reorderedCount := 0
	for trial := 0; trial < 120; trial++ {
		g := workload.RandomNiceGraph(rnd, 1+rnd.Intn(3), rnd.Intn(3))
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatal(err)
		}
		q := its[rnd.Intn(len(its))]
		rels := q.Relations()
		for k := rnd.Intn(3); k > 0; k-- {
			q = expr.NewRestrict(q, restOn(rels[rnd.Intn(len(rels))], int64(rnd.Intn(3))))
		}
		db := workload.RandomDB(rnd, g, 6)
		want, err := q.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		o := New(catalogFor(db))
		p, tr, err := o.PlanQueryTrace(q)
		if err != nil {
			t.Fatalf("trial %d: %v\nq=%s", trial, err, q.StringWithPreds())
		}
		if reordered(tr) {
			reorderedCount++
		}
		got, _, err := execute(o, p)
		if err != nil {
			t.Fatalf("trial %d: %v\nplan:\n%s", trial, err, p.Explain())
		}
		if !got.EqualBag(want) {
			t.Fatalf("trial %d: PlanQueryTrace changed the result\nq=%s\nplan tree=%s",
				trial, q.StringWithPreds(), p.Tree())
		}
	}
	if reorderedCount == 0 {
		t.Error("pipeline never reordered")
	}
}

// TestPlanQueryPushesFilterBelowJoin: a restriction over one relation of
// a reorderable join block folds into that relation's scan, and the DP
// still reorders.
func TestPlanQueryPushesFilterBelowJoin(t *testing.T) {
	rnd := rand.New(rand.NewSource(72))
	cat := storage.NewCatalog()
	cat.AddRelation("R", workload.UniformRelation(rnd, "R", 1000, 100))
	cat.AddRelation("S", workload.UniformRelation(rnd, "S", 1000, 100))
	o := New(cat)
	q := expr.NewRestrict(
		expr.NewJoin(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S")),
		restOn("R", 7))
	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reordered(tr) {
		t.Fatal("restricted join block should still reorder")
	}
	ex := p.Explain()
	// The filter must sit under the join, directly over scan R.
	if !strings.Contains(ex, "filter") {
		t.Fatalf("no filter in plan:\n%s", ex)
	}
	if p.Op == expr.Restrict {
		t.Fatalf("filter should be pushed below the join:\n%s", ex)
	}
	out, _, err := execute(o, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Errorf("rows = %d, want 1 (key-key join on a filtered key)", out.Len())
	}
}

// TestPlanQuerySimplifiesOuterjoin: a strong restriction over the
// null-supplied side converts the outerjoin, after which the block is a
// plain join and reorders.
func TestPlanQuerySimplifiesOuterjoin(t *testing.T) {
	rnd := rand.New(rand.NewSource(73))
	db := expr.DB{
		"R": workload.RandomRelation(rnd, "R", 20),
		"S": workload.RandomRelation(rnd, "S", 20),
	}
	o := New(catalogFor(db))
	q := expr.NewRestrict(
		expr.NewOuter(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S")),
		restOn("S", 1))
	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reordered(tr) {
		t.Fatal("after simplification the block is a plain join")
	}
	if strings.Contains(p.Explain(), "leftouterjoin") {
		t.Fatalf("outerjoin should have been simplified:\n%s", p.Explain())
	}
	want, _ := q.Eval(db)
	got, _, err := execute(o, p)
	if err != nil || !got.EqualBag(want) {
		t.Fatal("pipeline changed the result")
	}
}

// TestPlanQueryFixedFallback: non-reorderable shapes still plan and run.
func TestPlanQueryFixedFallback(t *testing.T) {
	rnd := rand.New(rand.NewSource(74))
	db := expr.DB{
		"X": workload.RandomRelation(rnd, "X", 8),
		"Y": workload.RandomRelation(rnd, "Y", 8),
		"Z": workload.RandomRelation(rnd, "Z", 8),
	}
	o := New(catalogFor(db))
	q := expr.NewRestrict(
		expr.NewOuter(expr.NewLeaf("X"),
			expr.NewJoin(expr.NewLeaf("Y"), expr.NewLeaf("Z"), eqp("Y", "Z")),
			eqp("X", "Y")),
		predicate.NewIsNull(relation.A("Y", "a"))) // non-strong: no simplification
	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if reordered(tr) {
		t.Fatal("Example 2 shape must not reorder")
	}
	want, _ := q.Eval(db)
	got, _, err := execute(o, p)
	if err != nil || !got.EqualBag(want) {
		t.Fatal("fixed fallback wrong")
	}
}

func TestPlanQueryErrors(t *testing.T) {
	o := New(storage.NewCatalog())
	q := expr.NewRestrict(expr.NewLeaf("NOPE"), restOn("NOPE", 1))
	if _, _, err := o.PlanQueryTrace(q); err == nil {
		t.Error("unknown table must fail")
	}
	anti := expr.NewAnti(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S"))
	if _, _, err := o.PlanQueryTrace(anti); err == nil {
		t.Error("antijoin plans unsupported")
	}
}

// TestPlanQueryIndexScan: a pushed-down constant equality over an
// indexed column becomes an index scan, collapsing the whole pipeline to
// a handful of retrieved tuples.
func TestPlanQueryIndexScan(t *testing.T) {
	rnd := rand.New(rand.NewSource(75))
	cat := storage.NewCatalog()
	for _, name := range []string{"R", "S"} {
		cat.AddRelation(name, workload.UniformRelation(rnd, name, 5000, 1<<30))
		tb, _ := cat.Table(name)
		if _, err := tb.BuildHashIndex("a"); err != nil {
			t.Fatal(err)
		}
	}
	o := New(cat)
	q := expr.NewRestrict(
		expr.NewJoin(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S")),
		restOn("R", 42))
	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reordered(tr) {
		t.Fatalf("plan not reordered: %s", tr)
	}
	if !strings.Contains(p.Explain(), "indexscan R.a = 42") {
		t.Fatalf("no index scan in plan:\n%s", p.Explain())
	}
	out, c, err := execute(o, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Errorf("rows = %d", out.Len())
	}
	if c.TuplesRetrieved() > 5 {
		t.Errorf("retrieved %d tuples, want <= 5:\n%s", c.TuplesRetrieved(), p.Explain())
	}
	// ToExpr reflects the restriction, so the plan stays auditable.
	back := p.ToExpr()
	want, err := back.Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	if !out.EqualBag(want) {
		t.Error("ToExpr of an index-scan plan is not equivalent")
	}
}

// TestLeafPlanResidualFilter: a conjunction of an indexable equality and
// a non-indexable comparison splits into indexscan + residual filter.
func TestLeafPlanResidualFilter(t *testing.T) {
	rnd := rand.New(rand.NewSource(76))
	cat := storage.NewCatalog()
	cat.AddRelation("R", workload.UniformRelation(rnd, "R", 100, 10))
	tb, _ := cat.Table("R")
	if _, err := tb.BuildHashIndex("a"); err != nil {
		t.Fatal(err)
	}
	o := New(cat)
	filter := predicate.NewAnd(
		restOn("R", 3),
		predicate.Cmp(predicate.GtOp, predicate.Col(relation.A("R", "b")), predicate.Const(relation.Int(-1))))
	p, err := o.leafPlan("R", filter)
	if err != nil {
		t.Fatal(err)
	}
	if p.Op != expr.Restrict || p.Left.Algo != AlgoIndexScan {
		t.Fatalf("shape:\n%s", p.Explain())
	}
	out, _, err := execute(o, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Errorf("rows = %d", out.Len())
	}
	// No index on the column: plain filter over scan.
	p2, err := o.leafPlan("R", predicate.EqConst(relation.A("R", "b"), relation.Int(1)))
	if err != nil || p2.Op != expr.Restrict || p2.Left.Algo != AlgoScan {
		t.Fatalf("non-indexed filter shape: %v %v", p2, err)
	}
	// Null constant never uses the index (null = x is Unknown).
	p3, err := o.leafPlan("R", predicate.EqConst(relation.A("R", "a"), relation.Null()))
	if err != nil || p3.Left == nil || p3.Left.Algo != AlgoScan {
		t.Fatalf("null-const filter shape: %v %v", p3, err)
	}
}

func TestStripLeafFilters(t *testing.T) {
	q := expr.NewJoin(
		expr.NewRestrict(expr.NewLeaf("R"), restOn("R", 1)),
		expr.NewRestrict(expr.NewLeaf("S"), restOn("S", 2)),
		eqp("R", "S"))
	stripped, filters, pure := stripLeafFilters(q)
	if !pure || len(filters) != 2 {
		t.Fatalf("strip: pure=%v filters=%v", pure, filters)
	}
	if stripped.Left.Op != expr.Leaf || stripped.Right.Op != expr.Leaf {
		t.Fatal("leaves not bare after strip")
	}
	// Interior restriction blocks purity.
	q2 := expr.NewJoin(
		expr.NewRestrict(
			expr.NewJoin(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S")),
			restOn("R", 1)),
		expr.NewLeaf("T"), eqp("S", "T"))
	if _, _, pure := stripLeafFilters(q2); pure {
		t.Fatal("interior restrict must block the DP path")
	}
	// Stacked leaf filters conjoin.
	q3 := expr.NewRestrict(expr.NewLeaf("R"), restOn("R", 1))
	q3 = expr.NewJoin(q3, expr.NewLeaf("S"), eqp("R", "S"))
	_, f3, _ := stripLeafFilters(expr.NewJoin(
		expr.NewRestrict(expr.NewRestrict(expr.NewLeaf("T"), restOn("T", 1)), restOn("T", 2)),
		expr.NewLeaf("U"), eqp("T", "U")))
	if p, ok := f3["T"]; !ok || len(predicate.Conjuncts(p)) != 2 {
		t.Fatalf("stacked filters = %v", f3)
	}
}
