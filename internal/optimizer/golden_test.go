package optimizer

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"freejoin/internal/expr"
	"freejoin/internal/parse"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

// goldenFile holds the Explain() text and DP search counts of the plans
// below as the optimizer chose them before the DP was rewritten to pair
// enumeration with value-typed costing (captured at commit 71c6db2).
// Plan choice — including every tie-break — is part of the engine's
// observable behaviour: the served benchmark's scan_join, spill_join and
// point_hit workloads plan once and then measure that plan. Regenerate
// with UPDATE_GOLDEN=1 only for a change that means to move plans.
const goldenFile = "testdata/explain.golden"

// keyedRelation is the benchmark's keyedTable: n rows whose columns are
// independent permutations a = aStep*[0,n) and b = bStep*[0,n).
func keyedRelation(rnd *rand.Rand, name string, n int, aStep, bStep int64) *relation.Relation {
	r := relation.New(relation.SchemeOf(name, "a", "b"))
	bs := rnd.Perm(n)
	for i, p := range rnd.Perm(n) {
		r.AppendRaw([]relation.Value{relation.Int(int64(p) * aStep), relation.Int(int64(bs[i]) * bStep)})
	}
	return r
}

// benchmarkCatalog rebuilds the tables of the served benchmark's fixed
// templates at their full sizes (benchmark/workloads.go, gen.go).
func benchmarkCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	rnd := rand.New(rand.NewSource(1))
	cat := storage.NewCatalog()
	for _, s := range []int64{1, 2, 3, 10, 20} { // scan_join / spill_join
		name := fmt.Sprintf("T%d", s)
		cat.AddRelation(name, keyedRelation(rnd, name, 8000/int(s), s, s))
	}
	// dangling_tree5: a tenth of each table is a shared backbone, each
	// join edge has a hot key held 150 times at both ends, the rest is
	// private.
	const n, hot = 3000, 150
	for i, name := range []string{"D0", "D1", "D2", "D3", "D4"} {
		r := relation.New(relation.SchemeOf(name, "a", "b"))
		var keys []int64
		for j := 0; j < n/10; j++ {
			keys = append(keys, int64(j)*10)
		}
		for k, e := range [][2]int{{0, 1}, {1, 2}} {
			for j := 0; j < hot && (e[0] == i || e[1] == i); j++ {
				keys = append(keys, int64(100*n+k))
			}
		}
		for private := int64(i+1) * 1000 * n; len(keys) < n; private++ {
			keys = append(keys, private)
		}
		for _, k := range keys {
			r.AppendRaw([]relation.Value{relation.Int(k), relation.Int(rnd.Int63n(n))})
		}
		cat.AddRelation(name, r)
	}
	cat.AddRelation("W1", keyedRelation(rnd, "W1", 6000, 1000, 100003)) // wide_result
	cat.AddRelation("W2", keyedRelation(rnd, "W2", 6000, 2000, 100003))
	r1 := relation.New(relation.SchemeOf("R1", "a", "b")) // point_hit's Example 1
	r1.AppendRaw([]relation.Value{relation.Int(17), relation.Int(4711)})
	cat.AddRelation("R1", r1)
	for _, name := range []string{"R2", "R3"} {
		cat.AddRelation(name, keyedRelation(rnd, name, 50000, 1, 1))
		tb, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.BuildHashIndex("a"); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// traceCounts renders the DP search counts and the root estimates at
// full float precision, so a last-bit drift in the cost arithmetic shows
// even where Explain's rounding would hide it.
func traceCounts(p *Plan, tr *Trace) string {
	return fmt.Sprintf("-- strategy %s; dp %d subsets, %d splits, %d candidates, %d pruned; root rows=%v cost=%v\n",
		tr.Strategy, tr.Subsets, tr.Splits, tr.Candidates, tr.Pruned, p.EstRows, p.Cost)
}

// goldenCase is one plan explain.golden pins: a query over its catalog,
// planned under a strategy, under the golden file's header line.
type goldenCase struct {
	header   string
	cat      *storage.Catalog
	strategy string
	q        *expr.Node
}

// goldenCases are the queries of explain.golden in file order.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	const dangling = "(((D0 -[D0.a = D1.a] D1) -[D1.a = D2.a] D2) ->[D1.a = D3.a] D3) ->[D2.a = D4.a] D4"
	cat := benchmarkCatalog(t)
	for _, tc := range []struct{ name, strategy, query string }{
		{"chain3_outer", "auto", "(T20 -[T20.a = T1.a] T1) ->[T1.b = T2.a] T2"},
		{"star4_mixed", "auto", "((T1 -[T1.a = T10.a] T10) -[T1.b = T3.a] T3) ->[T1.a = T2.a] T2"},
		{"dangling_tree5", "dp", dangling},
		{"dangling_tree5", "auto", dangling},
		{"dangling_tree5", "yannakakis", dangling},
		{"wide_outer", "", "W1 ->[W1.a = W2.a] W2"},
		{"example1", "", "R1 -[R1.a = R2.a] (R2 ->[R2.a = R3.a] R3)"},
	} {
		q, err := parse.Expr(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{fmt.Sprintf("%s strategy=%q", tc.name, tc.strategy), cat, tc.strategy, q})
	}

	// Seeded workload graphs: tiny tables over a 4-value domain, so
	// equal-cost candidates abound and every tie-break is exercised;
	// cyclic cores (multi-edge cuts, collapsed parallel edges) included.
	// Each graph is planned from a random implementing tree, which fixes
	// the node numbering the way a served query does, with and without
	// hash indexes.
	rnd := rand.New(rand.NewSource(2026))
	for i := 0; i < 50; i++ {
		g := workload.RandomNiceGraph(rnd, 1+rnd.Intn(5), rnd.Intn(4))
		db := workload.RandomDB(rnd, g, 6+30*(i%2))
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatal(err)
		}
		best := its[0]
		for _, it := range its { // order-independent pick: the smallest rendering
			if it.StringWithPreds() < best.StringWithPreds() {
				best = it
			}
		}
		c := catalogFor(db)
		if i%3 == 0 {
			c = indexedCatalogFor(t, db)
		}
		cases = append(cases, goldenCase{fmt.Sprintf("graph %d: %s", i, best.StringWithPreds()), c, "", best})
	}
	return cases
}

func TestExplainGolden(t *testing.T) {
	var b strings.Builder
	for _, gc := range goldenCases(t) {
		o := New(gc.cat)
		o.Strategy = gc.strategy
		p, tr, err := o.PlanQueryTrace(gc.q)
		if err != nil {
			t.Fatalf("%s: %v", gc.header, err)
		}
		fmt.Fprintf(&b, "== %s\n%s%s", gc.header, p.Explain(), traceCounts(p, tr))
	}

	got := b.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("plans moved; first difference at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("plans moved: golden has %d more lines", len(wl)-len(gl))
	}
}

// TestEveryAlgorithmWins is the cost model's reachability ratchet: every
// join algorithm joinCandidates can cost must be the one chosen for some
// node of an explain.golden plan. A candidate that never wins is code
// the optimizer cannot reach (a dominated one, say, whose cost is
// another's plus a non-negative term); delete it instead of carrying it.
// The candidate set is probed over the whole shape space, so a new
// algorithm joins the check without editing it.
func TestEveryAlgorithmWins(t *testing.T) {
	costed := map[Algo]bool{}
	for _, op := range []expr.Op{expr.Join, expr.LeftOuter} {
		for keys := 0; keys <= 2; keys++ {
			for _, ndv := range []float64{0, 10} {
				for _, n := range []float64{1, 100, 10000} {
					l, r := operand{rows: n, cost: n}, operand{rows: 2 * n, cost: 2 * n}
					_, cands, k := joinCandidates(op, l, r, joinShape{sel: 0.01, keys: keys, idxNDV: ndv})
					for _, c := range cands[:k] {
						costed[c.algo] = true
					}
				}
			}
		}
	}

	chosen := map[Algo]bool{}
	var walk func(p *Plan)
	walk = func(p *Plan) {
		if p == nil || p.IsLeaf() {
			return
		}
		chosen[p.Algo] = true
		walk(p.Left)
		walk(p.Right)
	}
	for _, gc := range goldenCases(t) {
		o := New(gc.cat)
		o.Strategy = gc.strategy
		p, _, err := o.PlanQueryTrace(gc.q)
		if err != nil {
			t.Fatalf("%s: %v", gc.header, err)
		}
		walk(p)
	}
	for a := range costed {
		if !chosen[a] {
			t.Errorf("join algorithm %s is costed but chosen by no explain.golden plan", a)
		}
	}
	t.Logf("costed %v, chosen %v", costed, chosen)
}

// Lowering hands each join its plan node's scheme instead of building
// one per query: over the explain.golden queries, under both planner
// strategies and at the default and an explicit batch size, every plan
// node lowers to an
// iterator whose Scheme() is the node's Scheme — the same pointer.
func TestLoweringReusesPlanSchemes(t *testing.T) {
	for _, gc := range goldenCases(t) {
		for _, strategy := range []string{"dp", "yannakakis"} {
			for _, batch := range []int{0, 7} {
				o := New(gc.cat)
				o.Strategy, o.BatchSize = strategy, batch
				p, _, err := o.PlanQueryTrace(gc.q)
				if err != nil {
					t.Fatalf("%s/%s: %v", gc.header, strategy, err)
				}
				var walk func(n *Plan)
				walk = func(n *Plan) {
					if n == nil {
						return
					}
					it, err := o.Build(n, nil)
					if err != nil {
						t.Fatalf("%s/%s/batch=%d: lowering %s: %v", gc.header, strategy, batch, nodeLabel(n), err)
					}
					if it.Scheme() != n.Scheme {
						t.Errorf("%s/%s/batch=%d: %s lowers to scheme %s, plan node has %s (equal: %v)",
							gc.header, strategy, batch, nodeLabel(n), it.Scheme(), n.Scheme, it.Scheme().Equal(n.Scheme))
					}
					walk(n.Left)
					walk(n.Right)
				}
				walk(p)
			}
		}
	}
}
