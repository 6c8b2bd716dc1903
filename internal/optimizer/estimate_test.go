package optimizer

import (
	"math"
	"testing"

	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// estimator tests: the cardinality model's fixed points.

// estimateJoinRows is the output-row estimate of l op r on pred, as join
// costing computes it.
func (o *Optimizer) estimateJoinRows(op expr.Op, pred predicate.Predicate, l, r *Plan) float64 {
	rows, _, _ := joinCandidates(op, l.operand(), r.operand(), o.shapeOf(pred, l, r))
	return rows
}

// joinAlternatives materialises every physical candidate for l op r on
// pred, not just the cheapest, so tests can build and run each one.
func (o *Optimizer) joinAlternatives(t *testing.T, op expr.Op, pred predicate.Predicate, l, r *Plan) []*Plan {
	t.Helper()
	rows, cands, n := joinCandidates(op, l.operand(), r.operand(), o.shapeOf(pred, l, r))
	var out []*Plan
	for _, c := range cands[:n] {
		p, err := newJoin(op, pred, l, r, c, rows)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func estimatorCatalog(t *testing.T) *Optimizer {
	t.Helper()
	cat := storage.NewCatalog()
	// R: 100 rows, a has 100 distinct values (a key), b has 10.
	r := relation.New(relation.SchemeOf("R", "a", "b"))
	for i := 0; i < 100; i++ {
		r.AppendRaw([]relation.Value{relation.Int(int64(i)), relation.Int(int64(i % 10))})
	}
	cat.AddRelation("R", r)
	// S: 50 rows, a has 50 distinct values.
	s := relation.New(relation.SchemeOf("S", "a"))
	for i := 0; i < 50; i++ {
		s.AppendRaw([]relation.Value{relation.Int(int64(i))})
	}
	cat.AddRelation("S", s)
	return New(cat)
}

func TestEstimateEquijoinUsesMaxNDV(t *testing.T) {
	o := estimatorCatalog(t)
	l, _ := o.leafPlan("R", nil)
	r, _ := o.leafPlan("S", nil)
	// sel = 1/max(ndv) = 1/100 → 100*50/100 = 50 rows.
	if got := o.estimateJoinRows(expr.Join, eqp("R", "S"), l, r); got != 50 {
		t.Errorf("equijoin estimate = %v, want 50", got)
	}
}

func TestEstimateNonEquiDefaultSelectivity(t *testing.T) {
	o := estimatorCatalog(t)
	l, _ := o.leafPlan("R", nil)
	r, _ := o.leafPlan("S", nil)
	gt := predicate.Cmp(predicate.GtOp,
		predicate.Col(relation.A("R", "a")), predicate.Col(relation.A("S", "a")))
	want := 100.0 * 50.0 * defaultSel
	if got := o.estimateJoinRows(expr.Join, gt, l, r); math.Abs(got-want) > 1e-9 {
		t.Errorf("theta estimate = %v, want %v", got, want)
	}
}

func TestEstimateOuterjoinFloor(t *testing.T) {
	o := estimatorCatalog(t)
	l, _ := o.leafPlan("R", nil)
	r, _ := o.leafPlan("S", nil)
	// Very selective predicate: join estimate below |L|, but outerjoin
	// preserves every left row.
	p := predicate.NewAnd(eqp("R", "S"), predicate.Eq(relation.A("R", "b"), relation.A("S", "a")))
	if got := o.estimateJoinRows(expr.LeftOuter, p, l, r); got != 100 {
		t.Errorf("outerjoin floor = %v, want |L| = 100", got)
	}
}

func TestEstimateFloorsAtOne(t *testing.T) {
	o := estimatorCatalog(t)
	l, _ := o.leafPlan("S", nil)
	r, _ := o.leafPlan("S", nil)
	// Conjunction of many equalities drives the estimate below 1.
	p := predicate.NewAnd(eqp("R", "S"), eqp("R", "S"), eqp("R", "S"))
	if got := o.estimateJoinRows(expr.Join, p, l, r); got != 1 {
		t.Errorf("estimate floor = %v, want 1", got)
	}
}

func TestEstimateUnknownTableDefaults(t *testing.T) {
	o := estimatorCatalog(t)
	if got := o.attrNDV(relation.A("NOPE", "x")); got != defaultNDV {
		t.Errorf("unknown table ndv = %v", got)
	}
	// Non-comparison conjunct → default selectivity.
	if got := o.conjunctSelectivity(predicate.NewIsNull(relation.A("R", "a"))); got != defaultSel {
		t.Errorf("is-null selectivity = %v", got)
	}
	// Constant comparison: ndv from the single column side.
	c := predicate.EqConst(relation.A("R", "b"), relation.Int(1))
	if got := o.conjunctSelectivity(c); got != 0.1 {
		t.Errorf("const eq selectivity = %v, want 0.1", got)
	}
}
