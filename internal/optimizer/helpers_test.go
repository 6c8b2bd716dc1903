package optimizer

import (
	"freejoin/internal/exec"
	"freejoin/internal/graph"
	"freejoin/internal/relation"
)

// planGraph plans a connected query graph the way planBlock plans a
// freely reorderable block without leaf filters: the configured
// strategy over the graph, through the plan cache when one is set.
func planGraph(o *Optimizer, g *graph.Graph) (*Plan, *Trace, error) {
	tr := &Trace{}
	p, err := o.optimizeGraphCached(g, nil, tr)
	if err != nil {
		return nil, nil, err
	}
	tr.Strategy = strategyFor(p)
	return p, tr, nil
}

// reordered reports whether the optimizer chose the operator order (the
// DP or the Yannakakis path) rather than the written association.
func reordered(tr *Trace) bool {
	return tr.Strategy == "reordered" || tr.Strategy == "yannakakis"
}

// execute lowers and runs p ungoverned.
func execute(o *Optimizer, p *Plan) (*relation.Relation, *exec.Counters, error) {
	return executeCtx(o, nil, p)
}

// executeCtx runs p under ec (nil: ungoverned).
func executeCtx(o *Optimizer, ec *exec.ExecContext, p *Plan) (*relation.Relation, *exec.Counters, error) {
	var c exec.Counters
	out, err := o.ExecuteCtxCounted(ec, p, &c)
	return out, &c, err
}

// executeAnalyzed runs p with per-operator instrumentation and returns
// the stats tree EXPLAIN ANALYZE renders.
func executeAnalyzed(o *Optimizer, p *Plan) (*relation.Relation, *exec.Counters, *exec.StatsNode, error) {
	var c exec.Counters
	it, root, err := o.BuildInstrumentedTraced(p, &c, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	out, err := exec.CollectCtx(nil, it, &c)
	return out, &c, root, err
}
