package optimizer

import (
	"fmt"
	"slices"

	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// Build lowers a plan to a physical iterator tree, wiring the counter
// through scans and index lookups. No instrumentation is attached: the
// returned tree is exactly the operators themselves (the zero-overhead
// path measured by BenchmarkStatsOverhead).
func (o *Optimizer) Build(p *Plan, c *exec.Counters) (exec.Iterator, error) {
	l := lowering{o: o, c: c}
	it, _, err := l.root(p)
	return it, err
}

// BuildInstrumentedTraced lowers p like Build but wraps every operator
// in an exec.Instrument stats collector, returning the root of the
// parallel StatsNode tree. Estimates (rows, cost) are copied onto each
// node so EXPLAIN ANALYZE can report estimation error next to actuals.
// Lowering decisions — which degradation path hash joins were wired
// with — are recorded into tr (which may be nil).
func (o *Optimizer) BuildInstrumentedTraced(p *Plan, c *exec.Counters, tr *Trace) (exec.Iterator, *exec.StatsNode, error) {
	l := lowering{o: o, c: c, ins: true, tr: tr}
	return l.root(p)
}

// lowering is one Build call. The shared plan nodes lowered so far, and
// their spools and stats entries, live here rather than on the
// Optimizer or the Plan, which concurrent sessions share.
type lowering struct {
	o      *Optimizer
	c      *exec.Counters
	ins    bool
	tr     *Trace
	shared []*Plan
	spools []*exec.Spool
	subs   []*exec.StatsNode
}

// root lowers p as an execution's root, which closes the spools' readers.
func (l *lowering) root(p *Plan) (exec.Iterator, *exec.StatsNode, error) {
	it, node, err := l.build(p)
	if err == nil && l.spools != nil {
		it = exec.WithSpools(it, l.spools)
	}
	return it, node, err
}

// build lowers p. A non-leaf node with several consumers is lowered once
// into a spool that each reference reads; a shared leaf is scanned per
// reference, its table being in memory already.
func (l *lowering) build(p *Plan) (exec.Iterator, *exec.StatsNode, error) {
	if p.Uses < 2 || p.IsLeaf() {
		return l.lower(p)
	}
	k := slices.Index(l.shared, p)
	if k < 0 {
		it, node, err := l.lower(p)
		if err != nil {
			return nil, nil, err
		}
		k, l.shared, l.subs = len(l.shared), append(l.shared, p), append(l.subs, node)
		l.spools = append(l.spools, exec.NewSpool(it, l.o.BatchSize))
	}
	r := l.spools[k].Reader()
	if !l.ins {
		return r, nil, nil
	}
	it, node := r.Instrument(fmt.Sprintf("spool #%d (shared, %d readers)", k+1, p.Uses), l.c, l.subs[k])
	return it, node, nil
}

// lower lowers p's own operator; when l.ins is set every operator is
// wrapped and the second result is its stats node (nil otherwise).
func (l *lowering) lower(p *Plan) (exec.Iterator, *exec.StatsNode, error) {
	o, c, ins, tr := l.o, l.c, l.ins, l.tr
	if p.IsLeaf() {
		t, err := o.cat.Table(p.Table)
		if err != nil {
			return nil, nil, err
		}
		var it *exec.BatchScan
		if p.Algo == AlgoIndexScan {
			if it, err = exec.NewBatchIndexScan(t, p.IndexCol, p.IndexVal, c, o.BatchSize); err != nil {
				return nil, nil, err
			}
		} else {
			it = exec.NewBatchScan(t, c, o.BatchSize)
		}
		wrapped, node := wrapNode(it, p, c, ins)
		return wrapped, node, nil
	}
	if p.Op == expr.GOJ {
		return l.buildGOJ(p)
	}
	if p.Op == expr.Restrict {
		return l.buildFilter(p)
	}
	left, lnode, err := l.build(p.Left)
	if err != nil {
		return nil, nil, err
	}
	mode := exec.InnerMode
	if p.Op == expr.LeftOuter {
		mode = exec.LeftOuterMode
	}
	switch p.Algo {
	case AlgoIndex:
		t, err := o.cat.Table(p.Right.Table)
		if err != nil {
			return nil, nil, err
		}
		lk, rk, ok := predicate.EquiParts(p.Pred, p.Left.Scheme, p.Right.Scheme)
		if !ok || len(lk) != 1 || rk[0].Name != p.IndexCol {
			return nil, nil, fmt.Errorf("optimizer: index plan predicate mismatch: %v", p.Pred)
		}
		it, err := exec.NewBatchIndexJoin(left, t, p.IndexCol, lk[0], nil, mode, joinScheme(p, left, t.Scheme()), c, o.BatchSize)
		if err != nil {
			return nil, nil, err
		}
		var kids []*exec.StatsNode
		if ins {
			// The inner table is never opened as an iterator — the join
			// fetches its rows through the index. A phantom entry keeps the
			// rendered tree congruent with the plan.
			kids = []*exec.StatsNode{lnode, {Label: nodeLabel(p.Right), EstRows: p.Right.EstRows}}
		}
		wrapped, node := wrapNode(it, p, c, ins, kids...)
		return wrapped, node, nil
	case AlgoHash:
		right, rnode, err := l.build(p.Right)
		if err != nil {
			return nil, nil, err
		}
		lk, rk, ok := predicate.EquiParts(p.Pred, p.Left.Scheme, p.Right.Scheme)
		if !ok {
			return nil, nil, fmt.Errorf("optimizer: hash plan predicate mismatch: %v", p.Pred)
		}
		it, err := exec.NewBatchHashJoin(left, right, lk, rk, nil, mode, joinScheme(p, left, right.Scheme()), o.BatchSize)
		if err != nil {
			return nil, nil, err
		}
		o.attachFallback(it, p, lk, rk, mode, c, tr)
		wrapped, node := wrapNode(it, p, c, ins, lnode, rnode)
		return wrapped, node, nil
	case AlgoNL:
		right, rnode, err := l.build(p.Right)
		if err != nil {
			return nil, nil, err
		}
		it, err := exec.NewBatchNestedLoopJoin(left, right, p.Pred, mode, joinScheme(p, left, right.Scheme()), o.BatchSize)
		if err != nil {
			return nil, nil, err
		}
		wrapped, node := wrapNode(it, p, c, ins, lnode, rnode)
		return wrapped, node, nil
	case AlgoSemiReduce:
		right, rnode, err := l.build(p.Right)
		if err != nil {
			return nil, nil, err
		}
		// The equi filter, else the nested-loop semijoin; both emit left
		// rows unchanged.
		var it exec.Iterator
		if _, _, equi := predicate.EquiParts(p.Pred, p.Left.Scheme, p.Right.Scheme); equi {
			it, err = exec.NewBatchSemiReduce(left, right, p.Pred, o.BatchSize)
		} else {
			it, err = exec.NewBatchNestedLoopJoin(left, right, p.Pred, exec.SemiMode, nil, o.BatchSize)
		}
		if err != nil {
			return nil, nil, err
		}
		wrapped, node := wrapNode(it, p, c, ins, lnode, rnode)
		return wrapped, node, nil
	default:
		return nil, nil, fmt.Errorf("optimizer: cannot build algorithm %s", p.Algo)
	}
}

// attachFallback marks a graceful-degradation path on a hash join when
// one is available: if the build side is a plain scan of a base table
// with a hash index on the single equi-key, a memory-budget trip during
// the build can be served by an index join over the same left input
// instead of aborting. Both strategies produce the same bag (null keys
// never match in either).
//
// When the optimizer runs with spilling enabled, the grace hash join is
// the preferred degradation — it keeps the planned hash strategy and
// needs no index — and the executor picks it over the index fallback at
// trip time. The index fallback is still wired as the path for
// spill-disabled contexts; the trace records whichever path this
// session would actually take.
func (o *Optimizer) attachFallback(it *exec.BatchHashJoin, p *Plan, lk, rk []relation.Attr, mode exec.JoinMode, c *exec.Counters, tr *Trace) {
	if o.Spill && tr != nil && tr.Degradation == "" {
		tr.Degradation = "grace-hash spill"
	}
	if len(lk) != 1 || !p.Right.IsLeaf() || p.Right.Algo != AlgoScan {
		return
	}
	t, err := o.cat.Table(p.Right.Table)
	if err != nil {
		return
	}
	if _, ok := t.HashIndexOn(rk[0].Name); !ok {
		return
	}
	if !o.Spill && tr != nil && tr.Degradation == "" {
		tr.Degradation = fmt.Sprintf("index join via %s.%s", p.Right.Table, rk[0].Name)
	}
	it.SetFallback(func(left exec.Iterator) (exec.Iterator, error) {
		return exec.NewBatchIndexJoin(left, t, rk[0].Name, lk[0], nil, mode, joinScheme(p, left, t.Scheme()), c, o.BatchSize)
	})
}

// joinScheme is the output scheme a join constructor gets for plan node
// p over its lowered inputs: p's own scheme when the inputs are the very
// schemes p was planned over, so lowering builds no scheme per join and
// query. A table redefined since planning has a new scheme; the join
// then derives its own from its inputs (nil).
func joinScheme(p *Plan, left exec.Iterator, right *relation.Scheme) *relation.Scheme {
	if left.Scheme() == p.Left.Scheme && right == p.Right.Scheme {
		return p.Scheme
	}
	return nil
}

// wrapNode instruments it as the physical realization of plan node p.
func wrapNode(it exec.Iterator, p *Plan, c *exec.Counters, ins bool, kids ...*exec.StatsNode) (exec.Iterator, *exec.StatsNode) {
	if !ins {
		return it, nil
	}
	w := exec.Instrument(it, nodeLabel(p), c, kids...)
	n := w.Node()
	n.EstRows, n.EstCost = p.EstRows, p.Cost
	return w, n
}

// nodeLabel renders a plan node's one-line operator description (the same
// vocabulary as Plan.Explain).
func nodeLabel(p *Plan) string {
	if p.IsLeaf() {
		if p.Algo == AlgoIndexScan {
			return fmt.Sprintf("indexscan %s.%s = %s", p.Table, p.IndexCol, p.IndexVal)
		}
		return "scan " + p.Table
	}
	if p.Op == expr.Restrict {
		return fmt.Sprintf("filter on %v", p.Pred)
	}
	opName := "join"
	switch p.Op {
	case expr.LeftOuter:
		opName = "leftouterjoin"
	case expr.GOJ:
		opName = "generalizedouterjoin"
	case expr.Semijoin:
		opName = "semireduce"
	}
	algo := p.Algo.String()
	switch {
	case p.Algo == AlgoIndex:
		algo = fmt.Sprintf("index(%s.%s)", p.Right.Table, p.IndexCol)
	case p.Algo == AlgoSemiReduce:
		if _, _, ok := predicate.EquiParts(p.Pred, p.Left.Scheme, p.Right.Scheme); ok {
			algo = "hash"
		} else {
			algo = "scan"
		}
	case p.Op == expr.GOJ:
		if _, _, ok := predicate.EquiParts(p.Pred, p.Left.Scheme, p.Right.Scheme); ok {
			algo = "hash"
		} else {
			algo = "algebra"
		}
	}
	return fmt.Sprintf("%s [%s] on %v", opName, algo, p.Pred)
}

// ExecuteCtxCounted lowers and runs p under an execution context
// carrying cancellation, deadline and memory budgets (ec may be nil for
// ungoverned execution), with caller-owned counters: the caller
// allocates c before execution and may read it concurrently while the
// query runs (Counters is atomic), which is how the server's
// live-progress view streams rows-so-far for in-flight queries.
func (o *Optimizer) ExecuteCtxCounted(ec *exec.ExecContext, p *Plan, c *exec.Counters) (*relation.Relation, error) {
	it, err := o.Build(p, c)
	if err != nil {
		return nil, err
	}
	return exec.CollectCtx(ec, it, c)
}
