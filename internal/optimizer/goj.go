package optimizer

import (
	"freejoin/internal/algebra"
	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Generalized-outerjoin planning (§6.2). Example 2's shape X → (Y — Z)
// is not freely reorderable, so the DP cannot touch it; identity 15
// nevertheless allows (X → Y) GOJ[sch(X)] Z, letting the engine evaluate
// the cheap X → Y side first. OptimizeWithGOJ extends PlanQueryTrace
// with that rewrite, and the Plan/Build layers gain a GOJ operator
// (hash-based when the predicate is a pure equijoin, reference algebra
// otherwise).

// planGOJ builds a plan node for GOJ[S][pred](l, r).
func (o *Optimizer) planGOJ(l, r *Plan, pred predicate.Predicate, s []relation.Attr) (*Plan, error) {
	scheme, err := l.Scheme.Concat(r.Scheme)
	if err != nil {
		return nil, err
	}
	// Cardinality: the join rows plus at most one row per distinct
	// S-projection; approximate with the outerjoin-style floor.
	outRows := joinRows(expr.LeftOuter, l.EstRows, r.EstRows, o.selectivity(pred))
	cost := l.EstRows*costProbePerRow + r.EstRows*costBuildPerRow
	return &Plan{
		Left: l, Right: r, Op: expr.GOJ, Pred: pred, GOJAttrs: s,
		Scheme: scheme, EstRows: outRows,
		Cost: l.Cost + r.Cost + cost + outRows*costOutputPerRow,
	}, nil
}

// buildGOJ lowers a GOJ plan node.
func (l *lowering) buildGOJ(p *Plan) (exec.Iterator, *exec.StatsNode, error) {
	c, ins := l.c, l.ins
	left, lnode, err := l.build(p.Left)
	if err != nil {
		return nil, nil, err
	}
	right, rnode, err := l.build(p.Right)
	if err != nil {
		return nil, nil, err
	}
	if lk, rk, ok := predicate.EquiParts(p.Pred, p.Left.Scheme, p.Right.Scheme); ok {
		it, err := exec.NewHashGOJ(left, right, lk, rk, p.GOJAttrs, l.o.BatchSize)
		if err != nil {
			return nil, nil, err
		}
		wrapped, node := wrapNode(it, p, c, ins, lnode, rnode)
		return wrapped, node, nil
	}
	// General predicate: materialize and use the reference algebra. The
	// children drain here, at build time, so their stats are already
	// complete when the (uncounted) scan of the result starts streaming.
	lrel, err := exec.Collect(left, nil)
	if err != nil {
		return nil, nil, err
	}
	rrel, err := exec.Collect(right, nil)
	if err != nil {
		return nil, nil, err
	}
	out, err := algebra.GeneralizedOuterJoin(lrel, rrel, p.Pred, p.GOJAttrs)
	if err != nil {
		return nil, nil, err
	}
	wrapped, node := wrapNode(exec.NewBatchScan(storage.NewTable("goj", out), nil, l.o.BatchSize), p, c, ins, lnode, rnode)
	return wrapped, node, nil
}

// OptimizeWithGOJ plans q like PlanQueryTrace, but when q is not freely
// reorderable it additionally tries the §6.2 GOJ reassociation at the
// root and keeps whichever of {fixed-order plan, GOJ plan} the cost model
// prefers. The string result names the strategy used: "reordered",
// "fixed", or "goj".
func (o *Optimizer) OptimizeWithGOJ(q *expr.Node) (*Plan, string, error) {
	p, tr, err := o.OptimizeWithGOJTrace(q)
	if tr == nil {
		return p, "", err
	}
	return p, tr.Strategy, err
}

// OptimizeWithGOJTrace is OptimizeWithGOJ with the decision record
// attached; on strategy "goj" the trace keeps the not-free verdict that
// made the reassociation worth trying.
func (o *Optimizer) OptimizeWithGOJTrace(q *expr.Node) (*Plan, *Trace, error) {
	// Uses the unrecorded planQuery so the strategy metric counts the
	// final decision, not the intermediate "fixed" verdict a successful
	// GOJ upgrade replaces.
	p, tr, err := o.planQuery(q)
	if err != nil {
		return nil, nil, err
	}
	defer func() { recordTrace(tr) }()
	if tr.Strategy != "fixed" { // the DP or the Yannakakis path chose the order
		return p, tr, nil
	}
	rw, ok, err := core.GOJReassociate(q, o.cat)
	if err != nil || !ok {
		return p, tr, err
	}
	gp, err := o.planExprWithGOJ(rw)
	if err != nil {
		// The rewrite exists but cannot be planned; keep the fixed plan.
		return p, tr, nil
	}
	if gp.Cost < p.Cost {
		tr.Strategy = "goj"
		return gp, tr, nil
	}
	return p, tr, nil
}

// planForcedGOJ applies the §6.2 rewrite when it matches and plans it
// regardless of estimated cost (an exploration hook for tests).
func (o *Optimizer) planForcedGOJ(q *expr.Node) (*Plan, bool, error) {
	rw, ok, err := core.GOJReassociate(q, o.cat)
	if err != nil || !ok {
		return nil, ok, err
	}
	p, err := o.planExprWithGOJ(rw)
	if err != nil {
		return nil, false, err
	}
	return p, true, nil
}

// planExprWithGOJ is PlanFixed extended with GOJ nodes.
func (o *Optimizer) planExprWithGOJ(q *expr.Node) (*Plan, error) {
	if q.Op != expr.GOJ {
		return o.PlanFixed(q)
	}
	l, err := o.planExprWithGOJ(q.Left)
	if err != nil {
		return nil, err
	}
	r, err := o.planExprWithGOJ(q.Right)
	if err != nil {
		return nil, err
	}
	return o.planGOJ(l, r, q.Pred, q.GOJAttrs)
}
