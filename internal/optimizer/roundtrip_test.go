package optimizer

import (
	"math/rand"
	"testing"

	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

// indexedCatalogFor is catalogFor with hash indexes on every node column,
// so the candidate generators can also emit index-join and index-scan
// plans.
func indexedCatalogFor(t *testing.T, db expr.DB) *storage.Catalog {
	t.Helper()
	cat := catalogFor(db)
	for _, name := range cat.Tables() {
		tb, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range workload.NodeColumns {
			if _, err := tb.BuildHashIndex(col); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cat
}

// TestFixedPlanRoundTrip: every implementing tree of a random graph must
// plan (PlanFixed), lower (Build) and execute to the same bag as the
// reference algebra evaluation of the tree itself.
func TestFixedPlanRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		g := workload.RandomConnectedGraph(rnd, 2+rnd.Intn(3))
		db := workload.RandomDB(rnd, g, 6)
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatal(err)
		}
		o := New(indexedCatalogFor(t, db))
		for i, q := range its {
			if len(its) > 8 && i%3 != 0 {
				continue // sample large IT sets
			}
			want, err := q.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			p, err := o.PlanFixed(q)
			if err != nil {
				t.Fatalf("trial %d: PlanFixed: %v\nq=%s", trial, err, q.StringWithPreds())
			}
			got, _, err := execute(o, p)
			if err != nil {
				t.Fatalf("trial %d: execute: %v\nq=%s\nplan:\n%s", trial, err, q.StringWithPreds(), p.Explain())
			}
			if !got.EqualBag(want) {
				t.Fatalf("trial %d: plan result differs from algebra\nq=%s\nplan:\n%s",
					trial, q.StringWithPreds(), p.Explain())
			}
		}
	}
}

// TestJoinCandidatesAllBuildable: every candidate fixedJoinPlans emits —
// hash, index, nested loops — must lower through Build and
// produce the same bag; no candidate may be generated that the build
// layer later rejects.
func TestJoinCandidatesAllBuildable(t *testing.T) {
	rnd := rand.New(rand.NewSource(72))
	for trial := 0; trial < 60; trial++ {
		g := workload.RandomConnectedGraph(rnd, 2)
		db := workload.RandomDB(rnd, g, 8)
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(its) == 0 {
			continue
		}
		q := its[rnd.Intn(len(its))]
		want, err := q.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		o := New(indexedCatalogFor(t, db))
		l, err := o.PlanFixed(q.Left)
		if err != nil {
			t.Fatal(err)
		}
		r, err := o.PlanFixed(q.Right)
		if err != nil {
			t.Fatal(err)
		}
		op := q.Op
		if op == expr.RightOuter {
			l, r = r, l
			op = expr.LeftOuter
		}
		cands := o.joinAlternatives(t, op, q.Pred, l, r)
		if len(cands) == 0 {
			t.Fatalf("trial %d: no candidates for %s", trial, q.StringWithPreds())
		}
		for _, cand := range cands {
			got, _, err := execute(o, cand)
			if err != nil {
				t.Fatalf("trial %d: candidate [%s] failed to build/run: %v\nq=%s",
					trial, cand.Algo, err, q.StringWithPreds())
			}
			if !got.EqualBag(want) {
				t.Fatalf("trial %d: candidate [%s] wrong result\nq=%s", trial, cand.Algo, q.StringWithPreds())
			}
		}
	}
}

// TestPlanQueryRoundTrip: the full planning pipeline (simplify, push,
// DP-or-fixed, residual filters) over random restricted queries matches
// direct algebra evaluation.
func TestPlanQueryRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(73))
	for trial := 0; trial < 60; trial++ {
		g := workload.RandomConnectedGraph(rnd, 2+rnd.Intn(3))
		db := workload.RandomDB(rnd, g, 6)
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(its) == 0 {
			continue
		}
		q := its[rnd.Intn(len(its))]
		if rnd.Intn(2) == 0 {
			// Wrap a restriction over a random relation's column.
			rel := g.Nodes()[rnd.Intn(g.NumNodes())]
			q = expr.NewRestrict(q, predicate.Cmp(predicate.GtOp,
				predicate.Col(relation.A(rel, "a")),
				predicate.Const(relation.Int(int64(rnd.Intn(4))))))
		}
		want, err := q.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		o := New(indexedCatalogFor(t, db))
		p, tr, err := o.PlanQueryTrace(q)
		if err != nil {
			t.Fatalf("trial %d: %v\nq=%s", trial, err, q.StringWithPreds())
		}
		if !reordered(tr) && tr.FallbackReason == "" {
			t.Fatalf("trial %d: fixed-order plan without a recorded reason", trial)
		}
		got, _, err := execute(o, p)
		if err != nil {
			t.Fatalf("trial %d: execute: %v\nplan:\n%s", trial, err, p.Explain())
		}
		if !got.EqualBag(want) {
			t.Fatalf("trial %d: pipeline changed the result\nq=%s\nplan:\n%s",
				trial, q.StringWithPreds(), p.Explain())
		}
	}
}

// TestOptimizeRejectsUndefinedGraph: a query whose graph is undefined
// (here, the same relation on both sides) must surface an error from both
// PlanQueryTrace and PlanFixed — not a panic, and not a silent wrong plan.
func TestOptimizeRejectsUndefinedGraph(t *testing.T) {
	cat := storage.NewCatalog()
	cat.AddRelation("R", relation.FromRows("R", []string{"a"}, []any{1}, []any{2}))
	o := New(cat)
	q := expr.NewJoin(expr.NewLeaf("R"), expr.NewLeaf("R"), eqp("R", "R"))
	if _, _, err := o.PlanQueryTrace(q); err == nil {
		t.Error("PlanQueryTrace must reject a self-join")
	}
	if _, err := o.PlanFixed(q); err == nil {
		t.Error("PlanFixed must reject operands with overlapping schemes")
	}
}
