package optimizer

import (
	"fmt"
	"time"

	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// PlanQueryTrace is the full §4 planning pipeline, returning the plan
// with its decision record:
//
//  1. Simplify: strong restrictions convert outerjoins to joins;
//  2. PushRestrictions: conjuncts sink to the base tables they cover;
//  3. if the remaining operator block (restrictions now only at leaves
//     or on top) is freely reorderable, run the DP over its graph with
//     the leaf filters folded into the scans; otherwise keep the written
//     order. Residual top-level restrictions become Filter operators.
//
// A query whose graph is undefined (Definition 1 fails: a relation used
// twice, a predicate not spanning exactly the two operand sides) keeps
// its written order and the trace records why; it is an error only when
// no physical plan applies to that order either.
func (o *Optimizer) PlanQueryTrace(q *expr.Node) (*Plan, *Trace, error) {
	plan, tr, err := o.planQuery(q)
	if err == nil {
		recordTrace(tr)
	}
	return plan, tr, err
}

// planQuery is PlanQueryTrace without the metrics hook, for callers
// (OptimizeWithGOJTrace) that may still revise the strategy.
func (o *Optimizer) planQuery(q *expr.Node) (*Plan, *Trace, error) {
	q, _ = core.Simplify(q, core.SimplifyOptions{})
	q = core.PushRestrictions(q)

	// Peel restrictions that stayed on top.
	var top []predicate.Predicate
	for q.Op == expr.Restrict {
		top = append(top, q.Pred)
		q = q.Left
	}

	plan, tr, err := o.planBlock(q)
	if err != nil {
		return nil, nil, err
	}
	for i := len(top) - 1; i >= 0; i-- {
		plan = o.filterPlan(plan, top[i])
	}
	return plan, tr, nil
}

// planBlock plans a join/outerjoin block whose only restrictions sit
// directly over leaves.
func (o *Optimizer) planBlock(q *expr.Node) (*Plan, *Trace, error) {
	tr := &Trace{Strategy: "fixed"}
	stripped, filters, pure := stripLeafFilters(q)
	aStart := time.Now()
	if !pure {
		tr.FallbackReason = "block is not a pure join/outerjoin tree over (filtered) base tables"
	} else if a, err := analyzeTimed(stripped, tr, aStart); err != nil {
		tr.FallbackReason = "query graph undefined: " + err.Error()
	} else if !a.Free {
		tr.FallbackReason = a.String()
	} else if a.SemiExtension {
		tr.FallbackReason = "freely reorderable only under the §6.3 semijoin extension (no physical semijoin operators)"
	} else {
		p, err := o.optimizeGraphCached(a.Graph, filters, tr)
		if err == nil {
			tr.Strategy = strategyFor(p)
			return p, tr, nil
		}
		tr.FallbackReason = "DP failed: " + err.Error()
	}
	p, err := o.PlanFixed(q)
	return p, tr, err
}

// analyzeTimed runs the free-reorderability analysis and records its
// duration (measured from start, which callers take before any
// pre-analysis work they want attributed to the phase) into the trace.
func analyzeTimed(q *expr.Node, tr *Trace, start time.Time) (*core.Analysis, error) {
	a, err := core.Analyze(q)
	tr.AnalyzeTime = time.Since(start)
	return a, err
}

// stripLeafFilters removes σ-over-leaf wrappers, returning the bare tree,
// the per-relation filter map, and whether the remainder is a pure
// join/outerjoin tree (no interior restrictions or other operators).
func stripLeafFilters(q *expr.Node) (*expr.Node, map[string]predicate.Predicate, bool) {
	filters := map[string]predicate.Predicate{}
	var walk func(n *expr.Node) (*expr.Node, bool)
	walk = func(n *expr.Node) (*expr.Node, bool) {
		switch n.Op {
		case expr.Leaf:
			return n, true
		case expr.Restrict:
			inner, ok := walk(n.Left)
			if ok && inner.Op == expr.Leaf {
				rel := inner.Rel
				if prev, ok := filters[rel]; ok {
					filters[rel] = predicate.NewAnd(prev, n.Pred)
				} else {
					filters[rel] = n.Pred
				}
				return inner, true
			}
			return n, false
		case expr.Join, expr.LeftOuter, expr.RightOuter:
			l, okL := walk(n.Left)
			if !okL {
				return n, false
			}
			r, okR := walk(n.Right)
			if !okR {
				return n, false
			}
			return &expr.Node{Op: n.Op, Left: l, Right: r, Pred: n.Pred}, true
		default:
			return n, false
		}
	}
	out, ok := walk(q)
	return out, filters, ok
}

// maxDPSubsets bounds the connected node sets one plan search visits. A
// chain of 64 relations has 2,016 of them and plans in milliseconds; a
// star of n has 2^(n-1), which no budget of time covers, so past this
// many the search stops with ErrSearchBudget.
const maxDPSubsets = 1 << 14

// ErrSearchBudget reports a query graph whose space of connected
// subsets is larger than the DP will enumerate. PlanQueryTrace falls
// back to the written operator order and records the reason in the
// trace.
var ErrSearchBudget = fmt.Errorf("optimizer: plan search stopped at its budget of %d connected subsets", maxDPSubsets)

// dpCell is the best plan found so far for a node set, as plain values:
// the *Plan tree is built once, from the winning cells, when the search
// is over.
type dpCell struct {
	operand
	s1   graph.NodeSet // S1 of the winning split; 0 while the set has no plan
	op   expr.Op
	algo Algo
	swap bool // the winning candidate takes S2 as its left operand
}

// edgeCost is what join costing needs of a graph edge, resolved once per
// search instead of once per candidate.
type edgeCost struct {
	sels   []float64  // conjunct selectivities, in predicate order
	keys   int        // joinShape.keys between the end relations
	idxNDV [2]float64 // joinShape.idxNDV with V [0] or U [1] as the right operand
}

// planSearch is one run of the DP over a query graph.
type planSearch struct {
	g     *graph.Graph
	tr    *Trace  // search statistics
	leaf  []*Plan // per node
	edges []edgeCost
	table map[graph.NodeSet]dpCell // node sets of two or more relations
	err   error
}

// optimizeGraph is the DP over a connected query graph, with
// per-relation filters folded into the leaf plans. When tr is non-nil
// the search statistics (subsets, splits, candidates, pruned) are
// recorded into it.
func (o *Optimizer) optimizeGraph(g *graph.Graph, filters map[string]predicate.Predicate, tr *Trace) (*Plan, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("optimizer: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("optimizer: graph is not connected")
	}
	if tr == nil {
		tr = new(Trace)
	}
	ps := &planSearch{g: g, tr: tr, leaf: make([]*Plan, n), edges: make([]edgeCost, len(g.Edges())),
		table: make(map[graph.NodeSet]dpCell, 4*n)}
	for i := range ps.leaf {
		var err error
		if ps.leaf[i], err = o.leafPlan(g.Node(i), filters[g.Node(i)]); err != nil {
			return nil, err
		}
	}
	sels := make([]float64, 0, 2*len(ps.edges))
	for i, e := range g.Edges() {
		ec := &ps.edges[i]
		from := len(sels)
		for _, c := range predicate.Conjuncts(e.Pred) {
			sels = append(sels, o.conjunctSelectivity(c))
		}
		ec.sels = sels[from:len(sels):len(sels)]
		u, v := e.Ends()
		if uk, vk, equi := predicate.EquiParts(e.Pred, ps.leaf[u].Scheme, ps.leaf[v].Scheme); equi {
			if ec.keys = len(uk); ec.keys == 1 {
				ec.idxNDV = [2]float64{o.indexNDV(ps.leaf[v], vk[0].Name), o.indexNDV(ps.leaf[u], uk[0].Name)}
			}
		}
	}

	// Splits yields every partition of S1 and of S2 before the pair
	// (S1, S2), so both halves hold their final plans when it is costed.
	if expr.Splits(g, ps.visit); ps.err != nil {
		return nil, ps.err
	}
	if n > 1 && ps.table[g.AllNodes()].s1 == 0 {
		return nil, fmt.Errorf("optimizer: no plan (graph admits no implementing tree)")
	}
	return ps.build(g.AllNodes())
}

// operand returns the costing view of the best plan for s, if it has one.
func (ps *planSearch) operand(s graph.NodeSet) (operand, bool) {
	if s&(s-1) == 0 {
		return ps.leaf[s.Lowest()].operand(), true
	}
	c := ps.table[s]
	return c.operand, c.s1 != 0
}

// visit costs one split and keeps it if it beats the set's best so far.
// Candidates are totally ordered — lower cost, then the larger S1, then
// the order within a split (see cost) — so the winner does not depend on
// the order splits arrive in.
func (ps *planSearch) visit(sp expr.Split) bool {
	s := sp.S1 | sp.S2
	cell, stored := ps.table[s]
	if !stored {
		if len(ps.table) == maxDPSubsets {
			ps.err = ErrSearchBudget
			return false
		}
		ps.tr.Subsets++
	}
	if sp.Op != expr.Leaf { // else: connected, but this cut is no single operator
		ps.tr.Splits++
		c, ok := ps.cost(sp)
		if ok && (cell.s1 == 0 || c.cost < cell.cost || (c.cost == cell.cost && c.s1 > cell.s1)) {
			if cell.s1 == 0 {
				ps.tr.Pruned-- // all candidates but each set's winner are pruned
			}
			cell, stored = c, false
		}
	}
	if !stored {
		ps.table[s] = cell
	}
	return true
}

// cost returns the cheapest candidate of one split, if it has any: for
// an outerjoin the preserved side is the left operand; for a join both
// orders are costed, S2 on the left winning only when strictly cheaper.
func (ps *planSearch) cost(sp expr.Split) (dpCell, bool) {
	l, lok := ps.operand(sp.S1)
	r, rok := ps.operand(sp.S2)
	if !lok || !rok || (sp.Op != expr.Join && sp.Op != expr.LeftOuter) {
		// A half has no plan, or the split is a semijoin (the §6.3
		// extension), which has no physical operator in this optimizer
		// yet; such graphs simply get no DP plan.
		return dpCell{}, false
	}
	js, equi := joinShape{sel: 1.0}, true
	for _, i := range sp.Cut {
		ec := &ps.edges[i]
		for _, sel := range ec.sels {
			js.sel *= sel
		}
		js.keys += ec.keys
		equi = equi && ec.keys > 0
	}
	if !equi {
		js.keys = 0
	}
	ls, rs := sp.S1, sp.S2
	swap := sp.Op == expr.LeftOuter && !sp.S1Preserved
	if swap {
		l, r, ls, rs = r, l, rs, ls
	}
	best, rows, n := cheapestJoin(sp.Op, l, r, ps.indexed(js, sp.Cut, rs))
	if sp.Op == expr.Join {
		c, _, m := cheapestJoin(sp.Op, r, l, ps.indexed(js, sp.Cut, ls))
		if n += m; c.cost < best.cost {
			best, swap = c, true
		}
	}
	ps.tr.Candidates += n
	ps.tr.Pruned += n
	return dpCell{operand{rows, best.cost}, sp.S1, sp.Op, best.algo, swap}, true
}

// indexed completes a cut's shape for right as the right operand: an
// index join needs a single relation reached over one single-key edge.
func (ps *planSearch) indexed(js joinShape, cut []int, right graph.NodeSet) joinShape {
	if js.keys == 1 && right&(right-1) == 0 {
		end := 0
		if u, _ := ps.g.Edges()[cut[0]].Ends(); right.Has(u) {
			end = 1
		}
		js.idxNDV = ps.edges[cut[0]].idxNDV[end]
	}
	return js
}

// build materialises the winning plan for s, top-down from its cell.
func (ps *planSearch) build(s graph.NodeSet) (*Plan, error) {
	if s&(s-1) == 0 {
		return ps.leaf[s.Lowest()], nil
	}
	c := ps.table[s]
	ls, rs := c.s1, s&^c.s1
	if c.swap {
		ls, rs = rs, ls
	}
	l, err := ps.build(ls)
	if err != nil {
		return nil, err
	}
	r, err := ps.build(rs)
	if err != nil {
		return nil, err
	}
	return newJoin(c.op, expr.CutPred(ps.g, ls, rs), l, r, candidate{c.algo, c.cost}, c.rows)
}

// leafPlan plans a base-table access under an optional pushed-down
// filter. A conjunct of the form col = const over a hash-indexed column
// upgrades the access path to an index scan; remaining conjuncts apply as
// a residual filter.
func (o *Optimizer) leafPlan(name string, filter predicate.Predicate) (*Plan, error) {
	t, err := o.cat.Table(name)
	if err != nil {
		return nil, err
	}
	rows := float64(t.Stats().Rows)
	scan := &Plan{Table: name, Scheme: t.Scheme(), EstRows: rows, Cost: rows * costScanPerRow}
	if filter == nil {
		return scan, nil
	}
	conjuncts := predicate.Conjuncts(filter)
	for i, c := range conjuncts {
		col, val, ok := constEquality(c, name)
		if !ok {
			continue
		}
		if _, hasIdx := t.HashIndexOn(col); !hasIdx {
			continue
		}
		fetched := rows / ndvOf(t, col)
		if fetched < 1 {
			fetched = 1
		}
		p := &Plan{
			Table: name, Algo: AlgoIndexScan, IndexCol: col, IndexVal: val,
			Scheme: scan.Scheme, EstRows: fetched,
			Cost: fetched * costLookup,
		}
		rest := append(append([]predicate.Predicate(nil), conjuncts[:i]...), conjuncts[i+1:]...)
		if len(rest) > 0 {
			return o.filterPlan(p, predicate.NewAnd(rest...)), nil
		}
		return p, nil
	}
	return o.filterPlan(scan, filter), nil
}

// constEquality matches "rel.col = const" (either operand order).
func constEquality(p predicate.Predicate, rel string) (string, relation.Value, bool) {
	cmp, ok := p.(*predicate.Comparison)
	if !ok || cmp.Op != predicate.EqOp {
		return "", relation.Value{}, false
	}
	a, b := cmp.Left, cmp.Right
	if a.IsConst() {
		a, b = b, a
	}
	if a.IsConst() || !b.IsConst() {
		return "", relation.Value{}, false
	}
	if a.Attr().Rel != rel || b.Value().IsNull() {
		return "", relation.Value{}, false
	}
	return a.Attr().Name, b.Value(), true
}

// filterPlan wraps a plan in a Filter with a selectivity-scaled estimate.
func (o *Optimizer) filterPlan(child *Plan, pred predicate.Predicate) *Plan {
	rows := child.EstRows * o.selectivity(pred)
	if rows < 1 {
		rows = 1
	}
	return &Plan{
		Op: expr.Restrict, Left: child, Pred: pred,
		Scheme: child.Scheme, EstRows: rows,
		Cost: child.Cost + child.EstRows + rows*costOutputPerRow,
	}
}

// buildFilter lowers a Restrict plan node.
func (l *lowering) buildFilter(p *Plan) (exec.Iterator, *exec.StatsNode, error) {
	child, cnode, err := l.build(p.Left)
	if err != nil {
		return nil, nil, err
	}
	it, err := exec.NewBatchFilter(child, p.Pred)
	if err != nil {
		return nil, nil, err
	}
	wrapped, node := wrapNode(it, p, l.c, l.ins, cnode)
	return wrapped, node, nil
}
