package expr

import (
	"strings"
	"testing"

	"freejoin/internal/graph"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// TestFigure1Graph rebuilds a Fig. 1-style query — joins among a chain
// plus an outerjoin — and checks both representations line up (DESIGN.md
// experiment E7). The reassociation "joining R and T" is disallowed
// because the graph has no R–T edge.
func TestFigure1Graph(t *testing.T) {
	// Q = ((R - S) - T) -> U with predicates p_rs, p_st, p_tu.
	q := NewOuter(
		NewJoin(NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")), NewLeaf("T"), eqp("S", "T")),
		NewLeaf("U"), eqp("T", "U"))
	g, err := GraphOf(q)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || len(g.Edges()) != 3 {
		t.Fatalf("graph shape: %v", g)
	}
	var joins, outers int
	for _, e := range g.Edges() {
		if e.Kind == graph.OuterEdge {
			outers++
			if e.U != "T" || e.V != "U" {
				t.Errorf("outer edge = %v, want T -> U", e)
			}
		} else {
			joins++
		}
	}
	if joins != 2 || outers != 1 {
		t.Errorf("joins=%d outers=%d", joins, outers)
	}
	if !Implements(q, g) {
		t.Error("q must implement its own graph")
	}
	// No R–T edge: a tree joining R and T directly cannot implement g.
	qBad := NewOuter(
		NewJoin(NewJoin(NewLeaf("R"), NewLeaf("T"), eqp("R", "T")), NewLeaf("S"), eqp("S", "T")),
		NewLeaf("U"), eqp("T", "U"))
	if Implements(qBad, g) {
		t.Error("a tree with an R-T join must not implement the Fig. 1 graph")
	}
	// E7: 5 implementing trees modulo reversal, none joining R and T.
	its, err := EnumerateITs(g, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(its) != 5 {
		t.Errorf("%d implementing trees modulo reversal, want 5", len(its))
	}
	for _, it := range its {
		if s := it.String(); strings.Contains(s, "(R - T)") || strings.Contains(s, "(T - R)") {
			t.Errorf("%s joins R and T directly", s)
		}
	}
}

func TestGraphOfCollapsesParallelJoinConjuncts(t *testing.T) {
	p1 := predicate.Eq(relation.A("R", "fn"), relation.A("S", "fn"))
	p2 := predicate.Eq(relation.A("R", "ln"), relation.A("S", "ln"))
	q := NewJoin(NewLeaf("R"), NewLeaf("S"), predicate.NewAnd(p1, p2))
	g, err := GraphOf(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges()) != 1 {
		t.Fatalf("parallel conjunct edges must collapse: %v", g)
	}
	if got := g.Edges()[0].Pred.String(); !strings.Contains(got, "fn") || !strings.Contains(got, "ln") {
		t.Errorf("collapsed predicate: %q", got)
	}
}

func TestGraphOfOuterDirections(t *testing.T) {
	// LeftOuter: R preserved, S null-supplied => edge R -> S.
	g1, err := GraphOf(NewOuter(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")))
	if err != nil {
		t.Fatal(err)
	}
	e := g1.Edges()[0]
	if e.U != "R" || e.V != "S" || e.Kind != graph.OuterEdge {
		t.Errorf("LeftOuter edge = %v", e)
	}
	// RightOuter: S preserved, R null-supplied => edge S -> R.
	g2, err := GraphOf(NewRightOuter(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")))
	if err != nil {
		t.Fatal(err)
	}
	e = g2.Edges()[0]
	if e.U != "S" || e.V != "R" {
		t.Errorf("RightOuter edge = %v", e)
	}
}

func TestGraphOfErrors(t *testing.T) {
	cases := []struct {
		name string
		q    *Node
	}{
		{"duplicate relation", NewJoin(NewLeaf("R"), NewLeaf("R"), eqp("R", "R"))},
		{"conjunct referencing one relation",
			NewJoin(NewLeaf("R"), NewLeaf("S"), predicate.EqConst(relation.A("R", "a"), relation.Int(1)))},
		{"conjunct referencing three relations", NewJoin(
			NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")),
			NewLeaf("T"),
			predicate.NewOr(eqp("R", "T"), eqp("S", "T")))}, // one conjunct touching R, S and T
		{"conjunct with both relations on one side", NewJoin(
			NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")),
			NewLeaf("T"),
			predicate.NewAnd(eqp("R", "S"), eqp("S", "T")))},
		{"outerjoin predicate with conjuncts across three relations", NewOuter(
			NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")),
			NewLeaf("T"),
			predicate.NewAnd(eqp("R", "T"), eqp("S", "T")))},
		{"antijoin has no edge kind", NewAnti(NewLeaf("R"), NewLeaf("S"), eqp("R", "S"))},
		{"semijoin predicate referencing one relation",
			NewSemi(NewLeaf("R"), NewLeaf("S"), predicate.EqConst(relation.A("R", "a"), relation.Int(1)))},
		{"restriction has no edge kind", NewRestrict(NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")), predicate.TruePred)},
		{"goj has no edge kind", NewGOJ(NewLeaf("R"), NewLeaf("S"), eqp("R", "S"), nil)},
	}
	for _, tc := range cases {
		if _, err := GraphOf(tc.q); err == nil {
			t.Errorf("%s: GraphOf must fail for %v", tc.name, tc.q)
		}
	}
}

func TestGraphOfJoinWithMultiPairConjuncts(t *testing.T) {
	// A join between (R-S) and T whose two conjuncts reference different
	// pairs: S-T and R-T. Both legal; two edges result.
	q := NewJoin(
		NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")),
		NewLeaf("T"),
		predicate.NewAnd(eqp("S", "T"), eqp("R", "T")))
	g, err := GraphOf(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges()) != 3 {
		t.Fatalf("want 3 edges (R-S, S-T, R-T), got %v", g)
	}
	if ok, _ := g.IsNice(); !ok {
		t.Error("cyclic pure-join graph is nice")
	}
}

func TestImplementsRejectsUndefinedGraph(t *testing.T) {
	g, _ := GraphOf(NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")))
	bad := NewAnti(NewLeaf("R"), NewLeaf("S"), eqp("R", "S"))
	if Implements(bad, g) {
		t.Error("tree with undefined graph implements nothing")
	}
}

// TestFigure1DOT (E7): the Figure 1 graph renders as DOT with its four
// relations, two undirected join edges, the directed outerjoin T → U and
// no R–T edge.
func TestFigure1DOT(t *testing.T) {
	dot := figure1Graph(t).DOT()
	for _, want := range []string{`"R";`, `"S";`, `"T";`, `"U";`, `"R" -> "S" [dir=none`, `"S" -> "T" [dir=none`, `"T" -> "U" [label=`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT lacks %s:\n%s", want, dot)
		}
	}
	if strings.Count(dot, " -> ") != 3 {
		t.Errorf("DOT must have exactly 3 edges:\n%s", dot)
	}
}

// figure1Graph is the graph of Figure 1's ((R - S) - T) -> U.
func figure1Graph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := GraphOf(NewOuter(
		NewJoin(NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")), NewLeaf("T"), eqp("S", "T")),
		NewLeaf("U"), eqp("T", "U")))
	if err != nil {
		t.Fatal(err)
	}
	return g
}
