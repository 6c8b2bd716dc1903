package optimizer

import (
	"fmt"

	"freejoin/internal/expr"
	"freejoin/internal/plancache"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Cost model constants: everything is measured in "tuples touched", the
// unit of the paper's Example 1.
const (
	costScanPerRow   = 1.0
	costBuildPerRow  = 1.0
	costProbePerRow  = 1.0
	costLookup       = 1.0 // per index probe
	costNLPerPair    = 1.0
	costOutputPerRow = 0.2
	defaultNDV       = 10.0
	defaultSel       = 1.0 / 3.0
)

// Optimizer plans queries over a catalog.
type Optimizer struct {
	cat *storage.Catalog

	// Spill declares that plans from this optimizer run on execution
	// contexts with spill-to-disk enabled, so blocking operators degrade
	// to external algorithms (grace hash join, spilled inner runs)
	// instead of index fallbacks or aborts on a memory-budget trip. The
	// flag is planner-side configuration: it selects the degradation
	// path recorded in the trace and keys the plan cache (a plan whose
	// fallback wiring assumed spilling must not be served to a
	// non-spilling session, and vice versa). The execution context's
	// EnableSpill carries the actual directory and fan-out.
	Spill bool

	// Strategy selects how freely-reorderable graphs are planned:
	//
	//	""            — classic DP over implementing trees (the default);
	//	"dp"          — same, spelled out;
	//	"yannakakis"  — force the acyclic fast path (a semijoin full
	//	                reducer over the join tree followed by the reduced
	//	                join) whenever the graph is a tree, falling back to
	//	                the DP otherwise;
	//	"auto"        — plan both and keep whichever the cost model says
	//	                is cheaper (ties go to the DP).
	//
	// The strategy keys the plan cache: toggling it never aliases plans.
	Strategy string

	// BatchSize is the rows per batch the lowered operators run with.
	// Zero (the default) leaves each operator at exec.DefaultBatchSize;
	// a positive value sets an explicit size. The size keys the plan
	// cache: it is baked into the operators at lowering, so a
	// fingerprint must never alias across sizes.
	BatchSize int

	// Cache, when set, is consulted before the reordering DP: queries
	// whose canonical graph fingerprint is resident skip optimization
	// entirely and share the cached plan (Theorem 1 makes the graph the
	// correct key — every implementing tree has the same result).
	// LookupStatement and PlanStatement key the same cache on query
	// text too, so a repeated statement skips planning altogether. Nil
	// disables caching. Several optimizers may share one cache; it is
	// safe for concurrent use.
	Cache *plancache.Cache
}

// New returns an optimizer over the catalog.
func New(cat *storage.Catalog) *Optimizer { return &Optimizer{cat: cat} }

// PlanFixed produces a physical plan honoring q's own operator order:
// only algorithm selection, no reordering. It supports join and outerjoin
// operators (the IT operator set) and restrictions over them.
func (o *Optimizer) PlanFixed(q *expr.Node) (*Plan, error) {
	switch q.Op {
	case expr.Leaf:
		return o.leafPlan(q.Rel, nil)
	case expr.Restrict:
		child, err := o.PlanFixed(q.Left)
		if err != nil {
			return nil, err
		}
		return o.filterPlan(child, q.Pred), nil
	case expr.Join, expr.LeftOuter, expr.RightOuter:
		l, err := o.PlanFixed(q.Left)
		if err != nil {
			return nil, err
		}
		r, err := o.PlanFixed(q.Right)
		if err != nil {
			return nil, err
		}
		op := q.Op
		if op == expr.RightOuter {
			// Normalize to left-preserved by swapping operands.
			l, r = r, l
			op = expr.LeftOuter
		}
		return o.planJoin(op, q.Pred, l, r, false)
	default:
		return nil, fmt.Errorf("optimizer: cannot plan operator %s", q.Op)
	}
}

// Join costing works on plain values; a candidate becomes a *Plan only
// once it has won. operand is what costing reads of an input, joinShape
// what it reads of the predicate, resolved for one (left, right) order.
type operand struct{ rows, cost float64 }

func (p *Plan) operand() operand { return operand{rows: p.EstRows, cost: p.Cost} }

type joinShape struct {
	sel  float64 // product of the conjunct selectivities
	keys int     // equi-key arity; 0: not a pure equijoin across the operands
	// idxNDV is nonzero when an index join applies — the right operand is
	// an unfiltered base-table scan with a hash index on its single key
	// column — and is that column's distinct count.
	idxNDV float64
}

// candidate is one costed physical alternative; cost includes both inputs.
type candidate struct {
	algo Algo
	cost float64
}

// joinCandidates is the join cost model: the estimated output rows of
// l op r and the applicable algorithms in their fixed order — hash,
// index, nested loops — each with its cumulative cost.
func joinCandidates(op expr.Op, l, r operand, js joinShape) (rows float64, cands [3]candidate, n int) {
	rows = joinRows(op, l.rows, r.rows, js.sel)
	add := func(algo Algo, cost float64) {
		cands[n] = candidate{algo, l.cost + r.cost + cost + rows*costOutputPerRow}
		n++
	}
	if js.keys > 0 {
		add(AlgoHash, l.rows*costProbePerRow+r.rows*costBuildPerRow)
		// Index join: its cost does NOT scan the right table — the
		// Example 1 effect.
		if js.idxNDV > 0 {
			add(AlgoIndex, l.rows*(costLookup+r.rows/js.idxNDV))
			cands[n-1].cost -= r.cost // right table never scanned
		}
	}
	add(AlgoNL, l.rows*r.rows*costNLPerPair)
	return rows, cands, n
}

// joinRows estimates the output cardinality of a join-family operator.
func joinRows(op expr.Op, l, r, sel float64) float64 {
	rows := l * r * sel
	if op == expr.LeftOuter && rows < l {
		rows = l // every preserved tuple appears at least once
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// cheapestJoin picks the first lowest-cost candidate of l op r and
// reports how many there were.
func cheapestJoin(op expr.Op, l, r operand, js joinShape) (best candidate, rows float64, n int) {
	rows, cands, n := joinCandidates(op, l, r, js)
	best = cands[0]
	for _, c := range cands[1:n] {
		if c.cost < best.cost {
			best = c
		}
	}
	return best, rows, n
}

// shapeOf resolves pred against the operand plans l and r.
func (o *Optimizer) shapeOf(pred predicate.Predicate, l, r *Plan) joinShape {
	js := joinShape{sel: o.selectivity(pred)}
	if lk, rk, equi := predicate.EquiParts(pred, l.Scheme, r.Scheme); equi {
		if js.keys = len(lk); js.keys == 1 {
			js.idxNDV = o.indexNDV(r, rk[0].Name)
		}
	}
	return js
}

// indexNDV is joinShape.idxNDV for r as the right operand keyed on col.
// A filtered leaf does not qualify: the index fetch would bypass the
// filter.
func (o *Optimizer) indexNDV(r *Plan, col string) float64 {
	if r.IsLeaf() && r.Algo == AlgoScan {
		if t, err := o.cat.Table(r.Table); err == nil {
			if _, ok := t.HashIndexOn(col); ok {
				return ndvOf(t, col)
			}
		}
	}
	return 0
}

// newJoin materialises a chosen candidate as a plan node over l and r.
// Overlapping operand schemes — a query that names one relation on both
// sides — are an error: no physical operator applies.
func newJoin(op expr.Op, pred predicate.Predicate, l, r *Plan, c candidate, rows float64) (*Plan, error) {
	scheme, err := l.Scheme.Concat(r.Scheme)
	if err != nil {
		return nil, fmt.Errorf("optimizer: no physical candidate: %w", err)
	}
	p := &Plan{
		Left: l, Right: r, Op: op, Pred: pred, Algo: c.algo,
		Scheme: scheme, EstRows: rows, Cost: c.cost,
	}
	if c.algo == AlgoIndex {
		_, rk, _ := predicate.EquiParts(pred, l.Scheme, r.Scheme)
		p.IndexCol = rk[0].Name
	}
	return p, nil
}

// planJoin costs l op r in the written orientation — and, when commute
// is set, the reverse one, which wins only if strictly cheaper — and
// allocates the winner.
func (o *Optimizer) planJoin(op expr.Op, pred predicate.Predicate, l, r *Plan, commute bool) (*Plan, error) {
	best, rows, _ := cheapestJoin(op, l.operand(), r.operand(), o.shapeOf(pred, l, r))
	if commute {
		if c, _, _ := cheapestJoin(op, r.operand(), l.operand(), o.shapeOf(pred, r, l)); c.cost < best.cost {
			l, r, best = r, l, c
		}
	}
	return newJoin(op, pred, l, r, best, rows)
}

// selectivity estimates the fraction of operand pairs (or, for a
// restriction, rows) that satisfy pred: the product over its conjuncts.
func (o *Optimizer) selectivity(pred predicate.Predicate) float64 {
	sel := 1.0
	for _, c := range predicate.Conjuncts(pred) {
		sel *= o.conjunctSelectivity(c)
	}
	return sel
}

func (o *Optimizer) conjunctSelectivity(c predicate.Predicate) float64 {
	cmp, ok := c.(*predicate.Comparison)
	if !ok || cmp.Op != predicate.EqOp {
		return defaultSel
	}
	ndv := 1.0
	for _, term := range []predicate.Term{cmp.Left, cmp.Right} {
		if term.IsConst() {
			continue
		}
		if d := o.attrNDV(term.Attr()); d > ndv {
			ndv = d
		}
	}
	return 1.0 / ndv
}

// attrNDV looks up the base-table distinct count for an attribute.
func (o *Optimizer) attrNDV(a relation.Attr) float64 {
	t, err := o.cat.Table(a.Rel)
	if err != nil {
		return defaultNDV
	}
	return ndvOf(t, a.Name)
}

func ndvOf(t *storage.Table, col string) float64 {
	d := t.Stats().Distinct[col]
	if d <= 0 {
		return 1
	}
	return float64(d)
}
