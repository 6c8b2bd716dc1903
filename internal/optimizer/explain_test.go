package optimizer

import (
	"math/rand"
	"strings"
	"testing"

	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/workload"
)

// chainSetup builds a three-relation join chain over a random database.
func chainSetup(t testing.TB, rows int) (*Optimizer, *expr.Node, expr.DB) {
	rnd := rand.New(rand.NewSource(91))
	g := workload.JoinChainGraph(3)
	db := expr.DB{}
	for _, name := range g.Nodes() {
		db[name] = workload.UniformRelation(rnd, name, rows, int64(rows/4+1))
	}
	its, err := expr.EnumerateITs(g, true)
	if err != nil || len(its) == 0 {
		t.Fatalf("no ITs: %v", err)
	}
	return New(catalogFor(db)), its[0], db
}

func TestExplainReordered(t *testing.T) {
	o, q, _ := chainSetup(t, 20)
	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Strategy != "reordered" {
		t.Fatalf("trace = %+v, want reordered", tr)
	}
	if tr.Subsets == 0 || tr.Splits == 0 || tr.Candidates == 0 {
		t.Errorf("DP statistics missing: %+v", tr)
	}
	if tr.Pruned >= tr.Candidates {
		t.Errorf("pruned %d of %d candidates (must keep at least one)", tr.Pruned, tr.Candidates)
	}
	text := Explain(p, tr)
	for _, want := range []string{"scan ", "strategy: reordered", "dp: "} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain output missing %q:\n%s", want, text)
		}
	}
}

func TestExplainFallbackReason(t *testing.T) {
	rnd := rand.New(rand.NewSource(92))
	db := expr.DB{
		"X": workload.RandomRelation(rnd, "X", 6),
		"Y": workload.RandomRelation(rnd, "Y", 6),
		"Z": workload.RandomRelation(rnd, "Z", 6),
	}
	// Example 2 shape: X -> (Y - Z) is not freely reorderable.
	q := expr.NewOuter(expr.NewLeaf("X"),
		expr.NewJoin(expr.NewLeaf("Y"), expr.NewLeaf("Z"), eqp("Y", "Z")),
		eqp("X", "Y"))
	o := New(catalogFor(db))
	_, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if reordered(tr) {
		t.Fatal("Example 2 shape must not reorder")
	}
	if tr.FallbackReason == "" {
		t.Error("fixed-order trace must carry the analysis verdict")
	}
	if !strings.Contains(tr.String(), "fallback: ") {
		t.Errorf("trace rendering missing fallback line:\n%s", tr)
	}
}

func TestExplainAnalyze(t *testing.T) {
	o, q, db := chainSetup(t, 20)
	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	out, c, text, err := o.ExplainAnalyzeTraced(nil, p, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.EqualBag(want) {
		t.Fatal("ExplainAnalyzeTraced changed the result")
	}
	if c.RowsProduced() != int64(out.Len()) {
		t.Errorf("counters RowsProduced = %d, want %d", c.RowsProduced(), out.Len())
	}
	for _, wantStr := range []string{"actual rows=", "q-err=", "tuples=", "-- totals: "} {
		if !strings.Contains(text, wantStr) {
			t.Errorf("ExplainAnalyzeTraced output missing %q:\n%s", wantStr, text)
		}
	}
}

// TestExplainAnalyzeIndexPhantom: an index-join plan renders its inner
// table as present but not separately executed.
func TestExplainAnalyzeIndexPhantom(t *testing.T) {
	rnd := rand.New(rand.NewSource(93))
	g := workload.JoinChainGraph(2)
	db := workload.RandomDB(rnd, g, 8)
	o := New(catalogFor(db))
	for _, name := range o.cat.Tables() {
		tb, err := o.cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range workload.NodeColumns {
			if _, err := tb.BuildHashIndex(col); err != nil {
				t.Fatal(err)
			}
		}
	}
	its, err := expr.EnumerateITs(g, true)
	if err != nil || len(its) == 0 {
		t.Fatal(err)
	}
	l, err := o.PlanFixed(its[0].Left)
	if err != nil {
		t.Fatal(err)
	}
	r, err := o.PlanFixed(its[0].Right)
	if err != nil {
		t.Fatal(err)
	}
	var idx *Plan
	for _, cand := range o.joinAlternatives(t, its[0].Op, its[0].Pred, l, r) {
		if cand.Algo == AlgoIndex {
			idx = cand
		}
	}
	if idx == nil {
		t.Skip("no index candidate for this predicate")
	}
	_, _, text, err := o.ExplainAnalyzeTraced(nil, idx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "not separately executed") {
		t.Errorf("index join inner table should render as a phantom node:\n%s", text)
	}
}

func TestQErr(t *testing.T) {
	cases := []struct {
		est    float64
		actual int64
		want   float64
	}{
		{10, 10, 1}, {10, 5, 2}, {5, 10, 2}, {0, 0, 1}, {0, 4, 4}, {8, 0, 8},
	}
	for _, tc := range cases {
		if got := qerr(tc.est, tc.actual); got != tc.want {
			t.Errorf("qerr(%v, %d) = %v, want %v", tc.est, tc.actual, got, tc.want)
		}
	}
}

// BenchmarkStatsOverhead compares the uninstrumented execution path (the
// default — structurally identical to a build without the observability
// layer, since disabled instrumentation attaches no wrappers at all)
// against the instrumented path. Run with -bench StatsOverhead and
// compare the two sub-benchmarks; "disabled" is the <5%-overhead
// acceptance gate and should be indistinguishable from the seed.
func BenchmarkStatsOverhead(b *testing.B) {
	o, q, _ := chainSetup(b, 400)
	p, _, err := o.PlanQueryTrace(q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var c exec.Counters
			it, err := o.Build(p, &c)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exec.Collect(it, &c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var c exec.Counters
			it, _, err := o.BuildInstrumentedTraced(p, &c, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exec.Collect(it, &c); err != nil {
				b.Fatal(err)
			}
		}
	})
}
