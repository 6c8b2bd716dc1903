// Package freejoin's root benchmarks: the optimizer's plan-cache miss
// path (the DP) and hit path, on the served benchmark's plan_cold
// shapes. The paper's claims are tier-1 tests in the packages they
// exercise (EXPERIMENTS.md cites each one); served performance is
// measured end to end by ./benchmark.
//
// Run with:
//
//	go test -run '^$' -bench . -benchmem .
package freejoin

import (
	"fmt"
	"math/rand"
	"testing"

	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/optimizer"
	"freejoin/internal/plancache"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

// planColdGraph builds one of the served benchmark's plan_cold shapes
// (benchmark/workloads.go): seven relations in a chain, a star or a
// binary tree, the first four a join core and the rest hanging off by
// outward outerjoin edges, over 16-row tables whose columns are keys.
func planColdGraph(shape string) (*graph.Graph, *storage.Catalog) {
	g := graph.New()
	cat := storage.NewCatalog()
	name := func(i int) string { return fmt.Sprintf("Q%d", i) }
	for i := 0; i < 7; i++ {
		r := relation.New(relation.SchemeOf(name(i), "a", "b"))
		for k := 0; k < 16; k++ {
			r.AppendRaw([]relation.Value{relation.Int(int64(k)), relation.Int(int64((5*k + i) % 16))})
		}
		cat.AddRelation(name(i), r)
		if i == 0 {
			g.MustAddNode(name(0))
			continue
		}
		parent := map[string]int{"chain": i - 1, "star": 0, "tree": (i - 1) / 2}[shape]
		p := predicate.Eq(relation.A(name(parent), "ab"[i%2:i%2+1]), relation.A(name(i), "a"))
		var err error
		if i < 4 {
			err = g.AddJoinEdge(name(parent), name(i), p)
		} else {
			err = g.AddOuterEdge(name(parent), name(i), p)
		}
		if err != nil {
			panic(err)
		}
	}
	return g, cat
}

// firstIT is one implementing tree of g: a query whose graph is g.
func firstIT(b *testing.B, g *graph.Graph) *expr.Node {
	its, err := expr.EnumerateITs(g, true)
	if err != nil {
		b.Fatal(err)
	}
	return its[0]
}

// BenchmarkOptimizerDP (E15): the plan-cache miss path — the §4
// pipeline (simplify, pushdown, the Lemma 1 analysis) and dynamic
// programming over the connected subsets of the plan_cold shapes — vs
// fixed-order planning of one implementing tree of the same graph.
func BenchmarkOptimizerDP(b *testing.B) {
	for _, shape := range []string{"chain", "star", "tree"} {
		g, cat := planColdGraph(shape)
		o := optimizer.New(cat)
		q := firstIT(b, g)
		b.Run("dp-"+shape+"7", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := o.PlanQueryTrace(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("fixed-"+shape+"7", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := o.PlanFixed(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanCacheHit: a warm plan-cache lookup through PlanQueryTrace
// (Simplify, the Lemma 1 analysis, fingerprint the graph, find the
// resident plan) vs planning the same query cold. The hit path must
// still win for the cache to carry its weight: 31 µs against 51 µs on a
// 2-core Xeon, the difference being the DP.
func BenchmarkPlanCacheHit(b *testing.B) {
	rnd := rand.New(rand.NewSource(15))
	g := workload.CoreWithTreesGraph(4, 3)
	cat := storage.NewCatalog()
	for _, node := range g.Nodes() {
		cat.AddRelation(node, workload.UniformRelation(rnd, node, 500, 100))
	}
	q := firstIT(b, g)
	b.Run("cold", func(b *testing.B) {
		o := optimizer.New(cat)
		for i := 0; i < b.N; i++ {
			if _, _, err := o.PlanQueryTrace(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		o := optimizer.New(cat)
		o.Cache = plancache.New(16)
		if _, _, err := o.PlanQueryTrace(q); err != nil { // populate
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := o.PlanQueryTrace(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
