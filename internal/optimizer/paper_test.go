package optimizer

// The paper's counting claims, asserted at tier-1 sizes. Each test is
// cited by its section of EXPERIMENTS.md (TestExperimentsCiteTests in
// the root package checks the citations).

import (
	"math/rand"
	"testing"

	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

// indexKeys builds a hash index on column a of each named table.
func indexKeys(t *testing.T, cat *storage.Catalog, tables ...string) {
	t.Helper()
	for _, name := range tables {
		tb, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.BuildHashIndex("a"); err != nil {
			t.Fatal(err)
		}
	}
}

// tuplesOf executes p and returns its result and base tuples retrieved.
func tuplesOf(t *testing.T, o *Optimizer, p *Plan) (*relation.Relation, int64) {
	t.Helper()
	out, c, err := execute(o, p)
	if err != nil {
		t.Fatalf("%s: %v", p.Tree(), err)
	}
	return out, c.TuplesRetrieved()
}

// rowsOf counts the rows the fixed-order plan of q emits, streaming
// them instead of collecting them.
func rowsOf(t *testing.T, o *Optimizer, q *expr.Node) int {
	t.Helper()
	p, err := o.PlanFixed(q)
	if err != nil {
		t.Fatal(err)
	}
	it, err := o.Build(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(nil); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for {
		b, ok, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		n += b.Len()
	}
}

// TestExample1FollowUpIntermediates (E2, §1.2): with the join predicate
// R1.b > R2.b made less and less selective (N = 10^4, |R1| = 100), the
// join-first order's intermediate grows with the selectivity while the
// outerjoin-first order's stays at N: join-first feeds the second
// operator fewer rows up to 0.5 % and more from 1 % on, so neither order
// is optimal everywhere.
func TestExample1FollowUpIntermediates(t *testing.T) {
	const n, r1Rows = 10_000, 100
	wantJoinFirst := map[int]int{1: 700, 5: 5_700, 10: 12_000, 50: 51_500, 250: 251_200, 1000: 1_000_000}
	for _, perMille := range []int{1, 5, 10, 50, 250, 1000} {
		rnd := rand.New(rand.NewSource(2))
		cat := storage.NewCatalog()
		r1 := relation.New(relation.SchemeOf("R1", "a", "b"))
		for i := 0; i < r1Rows; i++ {
			r1.AppendRaw([]relation.Value{relation.Int(int64(i)), relation.Int(int64(perMille))})
		}
		cat.AddRelation("R1", r1)
		r2 := relation.New(relation.SchemeOf("R2", "a", "b"))
		for i := 0; i < n; i++ {
			r2.AppendRaw([]relation.Value{relation.Int(int64(i)), relation.Int(rnd.Int63n(1000))})
		}
		cat.AddRelation("R2", r2)
		cat.AddRelation("R3", workload.UniformRelation(rnd, "R3", n, 1<<40))
		indexKeys(t, cat, "R2", "R3")
		o := New(cat)
		gt := predicate.Cmp(predicate.GtOp,
			predicate.Col(relation.A("R1", "b")), predicate.Col(relation.A("R2", "b")))

		joinFirst := expr.NewJoin(expr.NewLeaf("R1"), expr.NewLeaf("R2"), gt)
		outerFirst := expr.NewOuter(expr.NewLeaf("R2"), expr.NewLeaf("R3"), eqp("R2", "R3"))
		if got := rowsOf(t, o, joinFirst); got != wantJoinFirst[perMille] {
			t.Errorf("sel %.1f%%: join-first intermediate %d rows, want %d", float64(perMille)/10, got, wantJoinFirst[perMille])
		}
		if got := rowsOf(t, o, outerFirst); got != n {
			t.Errorf("sel %.1f%%: outerjoin-first intermediate %d rows, want %d", float64(perMille)/10, got, n)
		}
	}
}

// TestDPBeatsWorstFixedOrder (E15, §6.1): on a join chain with an
// outerjoin tail over tables of 1,000, 500, 250, ... rows (seed 3), the
// DP's plan retrieves fewer tuples than the costliest implementing tree
// executed as written, by a gain that grows with the chain.
func TestDPBeatsWorstFixedOrder(t *testing.T) {
	want := map[int][2]int64{3: {1750, 1250}, 4: {1875, 875}, 5: {1937, 562}, 6: {1968, 341}}
	for n := 3; n <= 6; n++ {
		g := workload.CoreWithTreesGraph(n-1, 1)
		rnd := rand.New(rand.NewSource(3))
		cat := storage.NewCatalog()
		for i, node := range g.Nodes() {
			cat.AddRelation(node, workload.UniformRelation(rnd, node, max(1000>>i, 10), 1<<30))
			indexKeys(t, cat, node)
		}
		o := New(cat)
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatal(err)
		}
		var worst *Plan
		for _, it := range its {
			p, err := o.PlanFixed(it)
			if err != nil {
				t.Fatal(err)
			}
			if worst == nil || p.Cost > worst.Cost {
				worst = p
			}
		}
		dp, _, err := o.PlanQueryTrace(its[0])
		if err != nil {
			t.Fatal(err)
		}
		_, fixed := tuplesOf(t, o, worst)
		_, opt := tuplesOf(t, o, dp)
		if got := [2]int64{fixed, opt}; got != want[n] {
			t.Errorf("chain %d: fixed %d / DP %d tuples, want %d / %d", n, fixed, opt, want[n][0], want[n][1])
		}
	}
}

// TestGOJExample2Tuples (E19, §6.2): Example 2's shape X -> (Y - Z) is
// not freely reorderable, but identity 15's rewrite
// (X -> Y) GOJ[sch(X)] Z lets the 1-row X drive: N+2 tuples retrieved
// instead of the written order's 2N+1, with the same result.
func TestGOJExample2Tuples(t *testing.T) {
	const n = 2000
	cat := example2Catalog(t, n)
	o := New(cat)
	q := example2Query()
	fixed, err := o.PlanFixed(q)
	if err != nil {
		t.Fatal(err)
	}
	_, fixedTuples := tuplesOf(t, o, fixed)
	p, strategy, err := o.OptimizeWithGOJ(q)
	if err != nil {
		t.Fatal(err)
	}
	out, gojTuples := tuplesOf(t, o, p)
	if strategy != "goj" || fixedTuples != 2*n+1 || gojTuples != n+2 {
		t.Errorf("strategy %s: fixed %d / GOJ %d tuples, want goj with %d / %d", strategy, fixedTuples, gojTuples, 2*n+1, n+2)
	}
	want, err := q.Eval(cat)
	if err != nil {
		t.Fatal(err)
	}
	if !out.EqualBag(want) {
		t.Error("GOJ plan changed the result")
	}
}

// TestRestrictionPipelineTuples (E20, §4): for σ[S.a = k](R -> (S -> T))
// over N-row indexed tables, filtering atop the written order retrieves
// 3N tuples; the §4 pipeline (Simplify turns R -> S into a join,
// pushdown sinks the conjunct onto S, the DP drives from the filtered S)
// retrieves 3.
func TestRestrictionPipelineTuples(t *testing.T) {
	const n = 1000
	rnd := rand.New(rand.NewSource(4))
	cat := storage.NewCatalog()
	for _, name := range []string{"R", "S", "T"} {
		cat.AddRelation(name, workload.UniformRelation(rnd, name, n, 1<<40))
	}
	indexKeys(t, cat, "R", "S", "T")
	o := New(cat)
	q := expr.NewRestrict(
		expr.NewOuter(expr.NewLeaf("R"),
			expr.NewOuter(expr.NewLeaf("S"), expr.NewLeaf("T"), eqp("S", "T")),
			eqp("R", "S")),
		predicate.EqConst(relation.A("S", "a"), relation.Int(n/2)))

	block, err := o.PlanFixed(q.Left)
	if err != nil {
		t.Fatal(err)
	}
	naive := o.filterPlan(block, q.Pred)
	naiveOut, naiveTuples := tuplesOf(t, o, naive)
	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	out, tuples := tuplesOf(t, o, p)
	if naiveTuples != 3*n || tuples != 3 {
		t.Errorf("naive %d / pipeline %d tuples, want %d / 3", naiveTuples, tuples, 3*n)
	}
	if !reordered(tr) || p.Tree() != "((sigma(S) - R) -> T)" {
		t.Errorf("planned %s (strategy %s), want ((sigma(S) - R) -> T) reordered", p.Tree(), tr.Strategy)
	}
	if out.Len() != 1 || !out.EqualBag(naiveOut) {
		t.Errorf("pipeline %d rows, naive %d rows: results differ", out.Len(), naiveOut.Len())
	}
}

// danglingChainCatalog is the reducer's home turf: a join chain
// A - B - C of 4,000-row tables where A and B share a hot key absent
// from C, and B and C another absent from A, so every join order's
// first join explodes to 10^6 rows before the third relation kills
// them; only 400 backbone rows join through.
func danglingChainCatalog() *storage.Catalog {
	const (
		hot      = 1000
		backbone = 400
		hotAB    = int64(5_000_001)
		hotBC    = int64(5_000_002)
	)
	rnd := rand.New(rand.NewSource(31))
	cat := storage.NewCatalog()
	for i, node := range []string{"A", "B", "C"} {
		r := relation.New(relation.SchemeOf(node, "a", "b"))
		add := func(key int64, count int) {
			for j := 0; j < count; j++ {
				r.AppendRaw([]relation.Value{relation.Int(key), relation.Int(rnd.Int63n(1 << 20))})
			}
		}
		if node != "C" {
			add(hotAB, hot)
		}
		if node != "A" {
			add(hotBC, hot)
		}
		for j := 0; j < backbone; j++ {
			add(int64(j*10), 1)
		}
		for offset := int64(100_000 * (i + 1)); r.Len() < 4000; {
			add(offset+int64(r.Len()), 1)
		}
		cat.AddRelation(node, r)
	}
	return cat
}

// rowsEmitted sums the rows every operator of an executed plan emitted:
// the plan's intermediate work.
func rowsEmitted(n *exec.StatsNode) int64 {
	sum := n.Stats.RowsOut
	for _, c := range n.Children {
		sum += rowsEmitted(c)
	}
	return sum
}

// TestYannakakisDanglingWork: on the dangling chain the DP plan's
// operators emit 1,012,800 rows and the forced full reducer's 23,800
// (about 42x fewer), because the reducer deletes both hot groups before
// any join runs.
func TestYannakakisDanglingWork(t *testing.T) {
	cat := danglingChainCatalog()
	q := expr.NewJoin(expr.NewJoin(expr.NewLeaf("A"), expr.NewLeaf("B"), eqp("A", "B")),
		expr.NewLeaf("C"), eqp("B", "C"))
	work := map[string]int64{}
	var want *relation.Relation
	for _, strategy := range []string{"dp", "yannakakis"} {
		o := New(cat)
		o.Strategy = strategy
		p, tr, err := o.PlanQueryTrace(q)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Strategy != map[string]string{"dp": "reordered", "yannakakis": "yannakakis"}[strategy] {
			t.Fatalf("%s: planned with strategy %s", strategy, tr.Strategy)
		}
		out, _, root, err := executeAnalyzed(o, p)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = out
		} else if !out.EqualBag(want) {
			t.Fatal("the reducer plan changed the result")
		}
		work[strategy] = rowsEmitted(root)
	}
	if work["dp"] != 1_012_800 || work["yannakakis"] != 23_800 {
		t.Errorf("rows emitted dp/yannakakis = %d / %d, want 1012800 / 23800", work["dp"], work["yannakakis"])
	}
}

// TestExample1PlanIgnoresWrittenAssociation (E1, §1.2): the query is
// freely reorderable, so the planner reaches the paper's good plan,
// retrieving 3 tuples, from either association the user writes.
func TestExample1PlanIgnoresWrittenAssociation(t *testing.T) {
	const n = 1000
	rnd := rand.New(rand.NewSource(58))
	cat := storage.NewCatalog()
	r1 := relation.New(relation.SchemeOf("R1", "a", "b"))
	r1.AppendRaw([]relation.Value{relation.Int(7), relation.Int(0)})
	cat.AddRelation("R1", r1)
	cat.AddRelation("R2", workload.UniformRelation(rnd, "R2", n, 1<<40))
	cat.AddRelation("R3", workload.UniformRelation(rnd, "R3", n, 1<<40))
	indexKeys(t, cat, "R2", "R3")
	o := New(cat)
	for _, q := range []*expr.Node{
		expr.NewJoin(expr.NewLeaf("R1"), expr.NewOuter(expr.NewLeaf("R2"), expr.NewLeaf("R3"), eqp("R2", "R3")), eqp("R1", "R2")),
		expr.NewOuter(expr.NewJoin(expr.NewLeaf("R1"), expr.NewLeaf("R2"), eqp("R1", "R2")), expr.NewLeaf("R3"), eqp("R2", "R3")),
	} {
		p, _, err := o.PlanQueryTrace(q)
		if err != nil {
			t.Fatal(err)
		}
		out, tuples := tuplesOf(t, o, p)
		if p.Tree() != "((R1 - R2) -> R3)" || out.Len() != 1 || tuples != 3 {
			t.Errorf("%s planned as %s: %d rows, %d tuples; want ((R1 - R2) -> R3), 1 row, 3 tuples", q, p.Tree(), out.Len(), tuples)
		}
	}
}
