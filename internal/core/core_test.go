package core

import (
	"math/rand"
	"strings"
	"testing"

	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/workload"
)

func eqp(u, v string) predicate.Predicate {
	return predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))
}

func TestAnalyzeNiceStrongQuery(t *testing.T) {
	// ((R - S) -> T): nice graph, strong (equality) outerjoin predicate.
	q := expr.NewOuter(
		expr.NewJoin(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S")),
		expr.NewLeaf("T"), eqp("S", "T"))
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Free || !a.Nice || !a.StrongOK {
		t.Fatalf("analysis = %+v", a)
	}
	if !strings.Contains(a.String(), "freely reorderable") {
		t.Errorf("String = %q", a.String())
	}
	if ok, reason := FreelyReorderable(q); !ok || reason != "" {
		t.Errorf("FreelyReorderable = %v, %q", ok, reason)
	}
}

func TestAnalyzeNonNiceQuery(t *testing.T) {
	// Example 2's graph: R -> (S - T).
	q := expr.NewOuter(expr.NewLeaf("R"),
		expr.NewJoin(expr.NewLeaf("S"), expr.NewLeaf("T"), eqp("S", "T")),
		eqp("R", "S"))
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Free || a.Nice {
		t.Fatalf("Example 2 query must not be nice: %+v", a)
	}
	if a.StrongOK != true {
		t.Error("its predicate is strong; only topology fails")
	}
	if ok, reason := FreelyReorderable(q); ok || !strings.Contains(reason, "not nice") {
		t.Errorf("FreelyReorderable = %v, %q", ok, reason)
	}
}

func TestAnalyzeWeakPredicate(t *testing.T) {
	// R -> S with "R.a = S.a or S.a is null": nice topology, weak predicate.
	q := expr.NewOuter(expr.NewLeaf("R"), expr.NewLeaf("S"),
		workload.NonStrongPredicate("R", "S"))
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Free || a.StrongOK || !a.Nice {
		t.Fatalf("analysis = %+v", a)
	}
	if len(a.WeakEdges) != 1 {
		t.Errorf("WeakEdges = %v", a.WeakEdges)
	}
	if !strings.Contains(a.String(), "non-strong") {
		t.Errorf("String = %q", a.String())
	}
}

func TestAnalyzeUndefinedGraph(t *testing.T) {
	q := expr.NewAnti(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S"))
	if _, err := Analyze(q); err == nil {
		t.Fatal("antijoin query has no graph")
	}
	if ok, reason := FreelyReorderable(q); ok || reason == "" {
		t.Error("FreelyReorderable must surface the graph error")
	}
}

// TestTheorem1AllITsEqual is the paper's main theorem, machine-checked
// (DESIGN.md E10): for random nice graphs with strong predicates, every
// implementing tree evaluates to the same result on random databases.
func TestTheorem1AllITsEqual(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	verified := 0
	for trial := 0; trial < 150; trial++ {
		g := workload.RandomNiceGraph(rnd, 1+rnd.Intn(3), rnd.Intn(3))
		if a := AnalyzeGraph(g); !a.Free {
			t.Fatalf("trial %d: generator produced non-free graph: %s", trial, a)
		}
		db := workload.RandomDB(rnd, g, 5)
		res, err := Verify(g, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.AllEqual {
			t.Fatalf("trial %d: THEOREM VIOLATION\ngraph:\n%v\ntree A %s:\n%v\ntree B %s:\n%v",
				trial, g, res.WitnessA, res.ResultA, res.WitnessB, res.ResultB)
		}
		verified += res.ITCount
	}
	if verified < 500 {
		t.Errorf("only %d tree evaluations verified; generator too small", verified)
	}
}

// TestNonNiceCounterexamples: for graphs violating niceness, some
// database distinguishes two implementing trees. (Not every non-nice
// graph instance on every database differs, so we search.)
func TestNonNiceCounterexamples(t *testing.T) {
	build := func() []*graph.Graph {
		// X -> Y - Z.
		g1 := graph.New()
		if err := g1.AddOuterEdge("X", "Y", eqp("X", "Y")); err != nil {
			t.Fatal(err)
		}
		if err := g1.AddJoinEdge("Y", "Z", eqp("Y", "Z")); err != nil {
			t.Fatal(err)
		}
		// X -> Y <- Z.
		g2 := graph.New()
		if err := g2.AddOuterEdge("X", "Y", eqp("X", "Y")); err != nil {
			t.Fatal(err)
		}
		if err := g2.AddOuterEdge("Z", "Y", eqp("Z", "Y")); err != nil {
			t.Fatal(err)
		}
		return []*graph.Graph{g1, g2}
	}
	rnd := rand.New(rand.NewSource(5))
	for gi, g := range build() {
		if ok, _ := g.IsNice(); ok {
			t.Fatalf("graph %d should not be nice", gi)
		}
		found := false
		for trial := 0; trial < 400 && !found; trial++ {
			db := workload.RandomDB(rnd, g, 4)
			res, err := Verify(g, db)
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllEqual {
				found = true
			}
		}
		if !found {
			t.Errorf("graph %d: no counterexample database found — non-niceness should matter", gi)
		}
	}
}

// TestWeakPredicateCounterexample: nice topology but a non-strong
// predicate admits differing implementing trees (Example 3 generalized).
func TestWeakPredicateCounterexample(t *testing.T) {
	g := graph.New()
	if err := g.AddOuterEdge("X", "Y", eqp("X", "Y")); err != nil {
		t.Fatal(err)
	}
	if err := g.AddOuterEdge("Y", "Z", workload.NonStrongPredicate("Z", "Y")); err != nil {
		t.Fatal(err)
	}
	if ok, _ := g.IsNice(); !ok {
		t.Fatal("topology is nice; only the predicate is weak")
	}
	if a := AnalyzeGraph(g); a.Free || a.StrongOK {
		t.Fatal("analysis must flag the weak predicate")
	}
	rnd := rand.New(rand.NewSource(6))
	found := false
	for trial := 0; trial < 500 && !found; trial++ {
		db := workload.RandomDB(rnd, g, 4)
		res, err := Verify(g, db)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllEqual {
			found = true
		}
	}
	if !found {
		t.Error("no counterexample found for the weak predicate")
	}
}

// TestLemma2AllBTsPreserve (E10 support): on nice graphs with strong
// predicates, every *applicable* basic transform preserves the result.
func TestLemma2AllBTsPreserve(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 80; trial++ {
		g := workload.RandomNiceGraph(rnd, 1+rnd.Intn(3), rnd.Intn(3))
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatal(err)
		}
		db := workload.RandomDB(rnd, g, 5)
		for _, it := range its {
			want, err := it.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			for _, bt := range expr.ApplicableBTs(it) {
				got, err := bt.Result.Eval(db)
				if err != nil {
					t.Fatal(err)
				}
				if !got.EqualBag(want) {
					t.Fatalf("trial %d: BT %v not result-preserving:\nfrom %s\nto %s",
						trial, bt.Kind, it.StringWithPreds(), bt.Result.StringWithPreds())
				}
				checked++
			}
		}
	}
	if checked < 300 {
		t.Errorf("only %d BTs checked", checked)
	}
}

// TestLemma3BTClosure (E11): on nice graphs, the BT closure of any IT is
// the complete IT set — any tree can be obtained from any other.
func TestLemma3BTClosure(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		g := workload.RandomNiceGraph(rnd, 1+rnd.Intn(3), rnd.Intn(3))
		all, err := expr.EnumerateITs(g, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) > 500 {
			continue // keep the BFS cheap
		}
		start := all[rnd.Intn(len(all))]
		cl, err := expr.Closure(start, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if len(cl) != len(all) {
			t.Fatalf("trial %d: closure %d != IT set %d for\n%v", trial, len(cl), len(all), g)
		}
		for _, it := range all {
			if _, ok := cl[it.StringWithPreds()]; !ok {
				t.Fatalf("trial %d: IT unreachable by BTs: %s", trial, it.StringWithPreds())
			}
		}
	}
}

// TestVerifySample: the statistical verifier agrees with the exhaustive
// one on nice graphs, finds counterexamples on non-nice ones, and scales
// to graphs beyond the exhaustive cap.
func TestVerifySample(t *testing.T) {
	rnd := rand.New(rand.NewSource(44))
	// Positive, over a big chain where exhaustive Verify refuses.
	g := workload.JoinChainGraph(12)
	if _, err := Verify(g, expr.DB{}); err == nil {
		t.Fatal("precondition: chain-12 exceeds the exhaustive cap")
	}
	db := workload.RandomDB(rnd, g, 4)
	res, err := VerifySample(g, db, 20, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllEqual || res.ITCount != 20 {
		t.Fatalf("sample verify on nice chain: %+v", res)
	}

	// Negative: Example 2's graph — sampling finds a counterexample on
	// some database.
	bad := graph.New()
	if err := bad.AddOuterEdge("X", "Y", eqp("X", "Y")); err != nil {
		t.Fatal(err)
	}
	if err := bad.AddJoinEdge("Y", "Z", eqp("Y", "Z")); err != nil {
		t.Fatal(err)
	}
	found := false
	for trial := 0; trial < 300 && !found; trial++ {
		db := workload.RandomDB(rnd, bad, 4)
		res, err := VerifySample(bad, db, 12, rnd)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllEqual {
			found = true
		}
	}
	if !found {
		t.Error("sampling should find the Example 2 counterexample")
	}
	// Default k.
	if res, err := VerifySample(g, db, 0, rnd); err != nil || res.ITCount != 16 {
		t.Errorf("default sample size: %+v %v", res, err)
	}
	// Missing table surfaces as an error.
	if _, err := VerifySample(g, expr.DB{}, 4, rnd); err == nil {
		t.Error("missing relations must error")
	}
}

func TestVerifyCapAndErrors(t *testing.T) {
	// A big chain exceeds the IT cap.
	g := workload.JoinChainGraph(12)
	if _, err := Verify(g, expr.DB{}); err == nil {
		t.Error("verification cap must trigger")
	}
	// Unknown relation surfaces as an eval error.
	g2 := workload.JoinChainGraph(2)
	if _, err := Verify(g2, expr.DB{}); err == nil {
		t.Error("missing relations must error")
	}
	// Disconnected graph.
	g3 := graph.New()
	g3.MustAddNode("R")
	g3.MustAddNode("S")
	if _, err := Verify(g3, expr.DB{}); err == nil {
		t.Error("disconnected graph must error")
	}
}

func TestVerifyQuery(t *testing.T) {
	q := expr.NewOuter(
		expr.NewJoin(expr.NewLeaf("A"), expr.NewLeaf("B"), eqp("A", "B")),
		expr.NewLeaf("C"), eqp("B", "C"))
	rnd := rand.New(rand.NewSource(9))
	db := expr.DB{
		"A": workload.RandomRelation(rnd, "A", 5),
		"B": workload.RandomRelation(rnd, "B", 5),
		"C": workload.RandomRelation(rnd, "C", 5),
	}
	res, err := VerifyQuery(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllEqual || res.ITCount == 0 {
		t.Errorf("result = %+v", res)
	}
	bad := expr.NewAnti(expr.NewLeaf("A"), expr.NewLeaf("B"), eqp("A", "B"))
	if _, err := VerifyQuery(bad, db); err == nil {
		t.Error("undefined graph must error")
	}
}

// TestExample2SharedGraph (E3, §1.3): R1 → (R2 − R3) and (R1 → R2) − R3,
// which differ on the paper's database (TestExample2NonAssociative in
// internal/algebra), have one query graph, and the analyzer rejects it as
// not nice at R2.
func TestExample2SharedGraph(t *testing.T) {
	var shapes []string
	for _, q := range []*expr.Node{
		expr.NewOuter(expr.NewLeaf("R1"), expr.NewJoin(expr.NewLeaf("R2"), expr.NewLeaf("R3"), eqp("R2", "R3")), eqp("R1", "R2")),
		expr.NewJoin(expr.NewOuter(expr.NewLeaf("R1"), expr.NewLeaf("R2"), eqp("R1", "R2")), expr.NewLeaf("R3"), eqp("R2", "R3")),
	} {
		g, err := expr.GraphOf(q)
		if err != nil {
			t.Fatal(err)
		}
		if a := AnalyzeGraph(g); a.Nice || !strings.Contains(a.NiceReason, "R2") {
			t.Errorf("%s: analysis = %s; want not nice at R2", q, a)
		}
		shapes = append(shapes, g.String())
	}
	if shapes[0] != shapes[1] {
		t.Errorf("graphs differ:\n%s\nvs\n%s", shapes[0], shapes[1])
	}
}

// TestExample3TreesDisagree (E4, §2.3): the graph A → B → C with the
// paper's non-strong P_bc is nice but not freely reorderable, and on the
// paper's database its implementing trees disagree.
func TestExample3TreesDisagree(t *testing.T) {
	g := graph.New()
	if err := g.AddOuterEdge("A", "B", predicate.Eq(relation.A("A", "a"), relation.A("B", "b1"))); err != nil {
		t.Fatal(err)
	}
	pbc := predicate.NewOr(
		predicate.Eq(relation.A("B", "b2"), relation.A("C", "c")),
		predicate.NewIsNull(relation.A("B", "b2")))
	if err := g.AddOuterEdge("B", "C", pbc); err != nil {
		t.Fatal(err)
	}
	if a := AnalyzeGraph(g); !a.Nice || a.StrongOK || a.Free {
		t.Fatalf("analysis = %s; want nice, P_bc weak, not free", a)
	}
	res, err := Verify(g, expr.DB{
		"A": relation.FromRows("A", []string{"a"}, []any{1}),
		"B": relation.FromRows("B", []string{"b1", "b2"}, []any{2, nil}),
		"C": relation.FromRows("C", []string{"c"}, []any{3}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllEqual {
		t.Error("Example 3's implementing trees must disagree")
	}
}

// TestTheorem1Figure2Trees (E10): the paper's Figure 2 topology is nice
// with strong predicates, so every sampled implementing tree of its
// 2 008 (modulo reversal) evaluates to the same result.
func TestTheorem1Figure2Trees(t *testing.T) {
	g := graph.New()
	for _, e := range [][2]string{{"R", "S"}, {"S", "T"}, {"T", "U"}, {"U", "R"}, {"S", "U"}} {
		if err := g.AddJoinEdge(e[0], e[1], eqp(e[0], e[1])); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"R", "V"}, {"V", "W"}, {"V", "X"}, {"T", "Y"}} {
		if err := g.AddOuterEdge(e[0], e[1], eqp(e[0], e[1])); err != nil {
			t.Fatal(err)
		}
	}
	if a := AnalyzeGraph(g); !a.Free {
		t.Fatalf("Figure 2 must be freely reorderable: %s", a)
	}
	rnd := rand.New(rand.NewSource(1994))
	for trial := 0; trial < 5; trial++ {
		res, err := VerifySample(g, workload.RandomDB(rnd, g, 4), 40, rnd)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllEqual {
			t.Fatalf("trial %d: %s and %s disagree:\n%v\nvs\n%v", trial, res.WitnessA, res.WitnessB, res.ResultA, res.ResultB)
		}
	}
}
