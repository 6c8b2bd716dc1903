package optimizer

import (
	"fmt"

	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/predicate"
)

// The Yannakakis acyclic fast path. When the query graph is a tree (every
// nice graph with n-1 edges is), the DP's O(3^n) enumeration can be
// sidestepped entirely: root the join tree, run a semijoin full-reducer
// program over it — a bottom-up pass followed by a top-down pass, each
// step deleting tuples that cannot contribute to the final result — and
// then join the reduced relations along the tree. After full reduction
// every intermediate join result is no larger than the final output, so
// the plan's worst case is O(input + output) regardless of join order.
//
// Outerjoin edges constrain the program (the reducer must never delete a
// preserved tuple that the outerjoin would have padded):
//
//   - the tree is rooted so every OuterEdge points parent → child
//     (graph.BuildJoinTree rejects graphs where no such root exists);
//   - the bottom-up pass reduces a parent only across JoinEdges — a
//     preserved parent is never filtered by its null-supplied child;
//   - the top-down pass reduces children across every edge kind: a child
//     tuple that matches no surviving parent tuple appears in no output
//     row whether the edge is a join (no match at all) or an outerjoin
//     (the parent row pads with nulls instead of pairing).

// planYannakakis builds the reducer-then-join plan for a tree-shaped
// query graph, or reports why the fast path does not apply (cyclic or
// disconnected graph, semijoin edges, no sound root). The caller decides
// whether an error means fallback (strategy dispatch) or failure.
func (o *Optimizer) planYannakakis(g *graph.Graph, filters map[string]predicate.Predicate) (*Plan, error) {
	jt, err := graph.BuildJoinTree(g)
	if err != nil {
		return nil, err
	}

	// Leaf plans, shared by reference: every reducer step replaces the
	// current plan for its target, and later steps (and the join phase)
	// pick up whichever reduction is most recent. The result is a DAG of
	// immutable *Plan nodes — a reduced relation's plan appears both as
	// the source of later reductions and in the join phase — and Uses
	// marks the shared ones, which lowering evaluates once.
	cur := make(map[string]*Plan, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		p, err := o.leafPlan(g.Node(i), filters[g.Node(i)])
		if err != nil {
			return nil, err
		}
		cur[g.Node(i)] = p
	}

	for _, step := range jt.ReducerProgram() {
		cur[step.Target] = o.semiReducePlan(cur[step.Target], cur[step.Source], step.Pred)
	}

	// Join phase: fold each node's reduced relation with its children's
	// subtree plans, bottom-up. Each tree edge is consumed exactly once
	// with its own kind — Join for JoinEdge, LeftOuter (parent side
	// preserved) for OuterEdge — so the result is an implementing tree
	// of g over the reduced relations.
	sub := make(map[string]*Plan, g.NumNodes())
	for _, n := range jt.PostOrder() {
		acc := cur[n]
		for _, c := range jt.Children(n) {
			_, e, _ := jt.Parent(c)
			op := expr.Join
			if e.Kind == graph.OuterEdge {
				op = expr.LeftOuter
			}
			var err error
			if acc, err = o.planJoin(op, e.Pred, acc, sub[c], op == expr.Join); err != nil {
				return nil, fmt.Errorf("yannakakis join phase at %s: %w", n, err)
			}
		}
		sub[n] = acc
	}
	countUses(sub[jt.Root()])
	return sub[jt.Root()], nil
}

// countUses fills Uses for the DAG below p, visiting each node once.
func countUses(p *Plan) {
	for _, c := range [2]*Plan{p.Left, p.Right} {
		if c != nil {
			if c.Uses++; c.Uses == 1 {
				countUses(c)
			}
		}
	}
}

// semiReducePlan builds one reducer step: target ⋉ source on pred. The
// output scheme is the target's own; the estimate is the target scaled
// by the predicate's selectivity against the source, never exceeding the
// target (a filter cannot grow its input).
func (o *Optimizer) semiReducePlan(target, source *Plan, pred predicate.Predicate) *Plan {
	rows := target.EstRows * source.EstRows * o.selectivity(pred)
	if rows > target.EstRows {
		rows = target.EstRows
	}
	if rows < 1 {
		rows = 1
	}
	return &Plan{
		Left: target, Right: source, Op: expr.Semijoin, Pred: pred,
		Algo:   AlgoSemiReduce,
		Scheme: target.Scheme, EstRows: rows,
		Cost: target.Cost + source.Cost +
			target.EstRows*costProbePerRow + source.EstRows*costBuildPerRow +
			rows*costOutputPerRow,
	}
}

// planUsesSemiReduce reports whether any node of p is a reducer step —
// the plan-shape marker of the Yannakakis strategy, robust across plan
// cache hits (the cached plan carries its own shape).
func planUsesSemiReduce(p *Plan) bool {
	if p == nil || p.IsLeaf() {
		return false
	}
	if p.Algo == AlgoSemiReduce {
		return true
	}
	return planUsesSemiReduce(p.Left) || planUsesSemiReduce(p.Right)
}

// strategyFor names the strategy that produced a reordered plan, by
// inspecting the plan itself.
func strategyFor(p *Plan) string {
	if planUsesSemiReduce(p) {
		return "yannakakis"
	}
	return "reordered"
}

// planGraph dispatches a freely-reorderable graph to the configured
// strategy. It sits between the plan cache and the planners: cached or
// not, every reordered plan flows through here.
func (o *Optimizer) planGraph(g *graph.Graph, filters map[string]predicate.Predicate, tr *Trace) (*Plan, error) {
	switch o.Strategy {
	case "", "dp":
		return o.optimizeGraph(g, filters, tr)
	case "yannakakis":
		p, err := o.planYannakakis(g, filters)
		if err == nil {
			return p, nil
		}
		if tr != nil && tr.FallbackReason == "" {
			tr.FallbackReason = "yannakakis inapplicable: " + err.Error()
		}
		return o.optimizeGraph(g, filters, tr)
	case "auto":
		dp, err := o.optimizeGraph(g, filters, tr)
		if err != nil {
			return nil, err
		}
		if y, yerr := o.planYannakakis(g, filters); yerr == nil && y.Cost < dp.Cost {
			return y, nil
		}
		return dp, nil
	default:
		return nil, fmt.Errorf("optimizer: unknown strategy %q", o.Strategy)
	}
}
