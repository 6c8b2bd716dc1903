package optimizer

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"freejoin/internal/core"
	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

// TestDPFindsCheapestImplementingTree is the optimality oracle: on small
// random connected graphs — cyclic cores, outerjoin and semijoin edges,
// nice or not — the DP's cost is the minimum, over every implementing
// tree in both orientations of every operator, of that tree's fixed-order
// cost, and the DP plan executes to the bag the reference algebra gives
// for the tree it stands for (and, when the graph is freely reorderable,
// for any other tree).
//
// A DP keeps one plan per node set, so it is exact only where the
// estimator gives a node set one cardinality whatever tree computes it.
// The outerjoin floor (at least the preserved side's rows) and the
// one-row floor break that on some graphs — different trees of one set
// then carry different row estimates, and the cheapest subplan is not
// always the best building block. The oracle checks the premise per
// graph from the trees' own estimates: where it holds the DP must equal
// the minimum; where it does not, the DP's tree is still one of the
// trees, so it can only be dearer.
func TestDPFindsCheapestImplementingTree(t *testing.T) {
	rnd := rand.New(rand.NewSource(2016))
	planned, exact := 0, 0
	for trial := 0; trial < 200; trial++ {
		var g *graph.Graph
		switch n := 2 + rnd.Intn(5); trial % 3 {
		case 0:
			g = workload.RandomConnectedGraph(rnd, n)
		case 1:
			g = workload.RandomNiceGraph(rnd, 1+rnd.Intn(n), n/2)
		default:
			g = workload.RandomSemiGraph(rnd, 1+rnd.Intn(n-1), rnd.Intn(2), 1)
		}
		if n, err := expr.CountITs(g, false); err != nil || n > 20000 {
			continue
		}
		db := workload.RandomDB(rnd, g, 4+rnd.Intn(12))
		o := New(catalogFor(db))
		if trial%2 == 0 {
			o = New(indexedCatalogFor(t, db))
		}
		its, err := expr.EnumerateITs(g, false)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		rows := map[graph.NodeSet][2]float64{} // per node set, least and most estimated rows
		var walk func(p *Plan) graph.NodeSet
		walk = func(p *Plan) graph.NodeSet {
			if p.IsLeaf() {
				return graph.NodeSet(0).With(g.IndexOf(p.Table))
			}
			s := walk(p.Left) | walk(p.Right)
			r, seen := rows[s]
			if !seen {
				r = [2]float64{p.EstRows, p.EstRows}
			}
			rows[s] = [2]float64{math.Min(r[0], p.EstRows), math.Max(r[1], p.EstRows)}
			return s
		}
		for _, it := range its {
			if p, err := o.PlanFixed(it); err == nil {
				best = math.Min(best, p.Cost)
				walk(p)
			}
		}
		p, _, err := planGraph(o, g)
		if math.IsInf(best, 1) {
			// No tree is plannable (semijoin operators have no physical
			// form, or the graph admits no tree at all): the DP must agree.
			if err == nil {
				t.Fatalf("trial %d: DP planned a graph none of whose %d trees plans\n%s", trial, len(its), g)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: DP failed where a tree costs %v: %v\n%s", trial, best, err, g)
		}
		planned++
		premise := true
		for _, r := range rows {
			premise = premise && r[1]-r[0] <= 1e-9*r[1]
		}
		if premise {
			exact++
		}
		if d := p.Cost - best; d < -1e-9*best || (premise && d > 1e-9*best) {
			t.Fatalf("trial %d: DP cost %v, cheapest of %d trees %v (one cardinality per set: %v)\n%s%s",
				trial, p.Cost, len(its), best, premise, g, p.Explain())
		}
		got, _, err := execute(o, p)
		if err != nil {
			t.Fatalf("trial %d: execute: %v\n%s", trial, err, p.Explain())
		}
		ref := p.ToExpr()
		if core.AnalyzeGraph(g).Free {
			ref = its[rnd.Intn(len(its))]
		}
		want, err := ref.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualBag(want) {
			t.Fatalf("trial %d: DP plan's bag differs from the algebra's for %s\n%s", trial, ref.StringWithPreds(), p.Explain())
		}
	}
	if planned < 100 || exact < planned/2 {
		t.Fatalf("%d graphs planned, %d with one cardinality per set: the generator mix no longer tests the DP", planned, exact)
	}
}

// bigGraph builds a chain or star of n one-row relations over a fresh
// catalog and writes the matching left-deep query.
func bigGraph(t *testing.T, shape string, n int) (*expr.Node, *Optimizer) {
	t.Helper()
	cat := storage.NewCatalog()
	var q *expr.Node
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("N%d", i)
		cat.AddRelation(name, relation.FromRows(name, []string{"a"}, []any{1}))
		if i == 0 {
			q = expr.NewLeaf(name)
			continue
		}
		parent := "N0"
		if shape == "chain" {
			parent = fmt.Sprintf("N%d", i-1)
		}
		q = expr.NewJoin(q, expr.NewLeaf(name), predicate.Eq(relation.A(parent, "a"), relation.A(name, "a")))
	}
	return q, New(cat)
}

// TestDPScalesWithTheSearchSpace: planning time follows the number of
// connected subsets, not 2^n. A chain of 24 (300 subsets; the power-set
// sweep took seconds) and one of 64 (every NodeSet bit in use; the sweep
// never terminated) plan at once.
func TestDPScalesWithTheSearchSpace(t *testing.T) {
	for n, subsets := range map[int]int{24: 276, 64: 2016} {
		q, o := bigGraph(t, "chain", n)
		start := time.Now()
		p, tr, err := o.PlanQueryTrace(q)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); n == 24 && d > 50*time.Millisecond {
			t.Errorf("chain24 planned in %v, want < 50ms", d)
		}
		if !reordered(tr) || tr.Subsets != subsets {
			t.Errorf("chain%d: strategy %s over %d subsets, want reordered over %d", n, tr.Strategy, tr.Subsets, subsets)
		}
		if got, _, err := execute(o, p); err != nil || got.Len() != 1 {
			t.Errorf("chain%d: executed to %v, %v", n, got, err)
		}
	}
}

// TestDPSearchBudget: a star of 24 has 2^23 connected subsets. The DP
// stops at its budget with a typed error, and the query pipeline falls
// back to the written order with the reason on record instead of holding
// its admission slot for minutes.
func TestDPSearchBudget(t *testing.T) {
	q, o := bigGraph(t, "star", 24)
	a, err := core.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := planGraph(o, a.Graph); !errors.Is(err, ErrSearchBudget) {
		t.Fatalf("planGraph(star24) = %v, want ErrSearchBudget", err)
	}
	start := time.Now()
	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("star24 fell back after %v", d)
	}
	if tr.Strategy != "fixed" || !strings.Contains(tr.FallbackReason, "budget") {
		t.Errorf("strategy %q, fallback reason %q: want fixed with the budget named", tr.Strategy, tr.FallbackReason)
	}
	if got, _, err := execute(o, p); err != nil || got.Len() != 1 {
		t.Errorf("fixed-order star24 executed to %v, %v", got, err)
	}
	// The largest star inside the budget still gets the DP.
	q, o = bigGraph(t, "star", 15)
	if _, tr, err := o.PlanQueryTrace(q); err != nil || !reordered(tr) {
		t.Errorf("star15: %v, trace %+v", err, tr)
	}
}

// TestDPAllocations gates the miss path's garbage without needing a quiet
// machine: planning a 7-relation star allocates what it returns (13 plan
// nodes, 6 concatenated schemes) plus per-search tables — not a plan node
// and a scheme per candidate, which took 5,211 allocations.
func TestDPAllocations(t *testing.T) {
	cat := storage.NewCatalog()
	g := graph.New()
	for i := 0; i < 7; i++ {
		name := fmt.Sprintf("Q%d", i)
		cat.AddRelation(name, relation.FromRows(name, []string{"a", "b"}, []any{1, 2}, []any{2, 1}, []any{3, 3}))
		p := predicate.Eq(relation.A("Q0", "a"), relation.A(name, "b"))
		switch {
		case i == 0:
			g.MustAddNode(name)
		case i < 4:
			err := g.AddJoinEdge("Q0", name, p)
			if err != nil {
				t.Fatal(err)
			}
		default:
			if err := g.AddOuterEdge("Q0", name, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	o := New(cat)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := o.optimizeGraph(g, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 150 {
		t.Errorf("star7 optimizeGraph: %.0f allocations, want <= 150", allocs)
	}
}
