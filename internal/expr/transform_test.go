package expr

import (
	"strings"
	"testing"

	"freejoin/internal/predicate"
)

func TestReversal(t *testing.T) {
	j := NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S"))
	rev, ok := reverse(j)
	if !ok || rev.String() != "(S - R)" {
		t.Errorf("join reversal: %v %v", rev, ok)
	}
	oj := NewOuter(NewLeaf("R"), NewLeaf("S"), eqp("R", "S"))
	rev, ok = reverse(oj)
	if !ok || rev.Op != RightOuter || rev.String() != "(S <- R)" {
		t.Errorf("outer reversal: %v", rev)
	}
	back, ok := reverse(rev)
	if !ok || !back.Equal(oj) {
		t.Error("reversal must be an involution")
	}
	aj := NewAnti(NewLeaf("R"), NewLeaf("S"), eqp("R", "S"))
	rev, ok = reverse(aj)
	if !ok || rev.Op != RightAnti {
		t.Errorf("anti reversal: %v", rev)
	}
	if _, ok := reverse(NewLeaf("R")); ok {
		t.Error("leaf cannot reverse")
	}
	if _, ok := reverse(NewRestrict(NewLeaf("R"), predicate.TruePred)); ok {
		t.Error("restrict cannot reverse")
	}
}

func TestReassociateSimple(t *testing.T) {
	// ((R - S) - T) with p_rs, p_st => (R - (S - T)).
	q := NewJoin(NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")), NewLeaf("T"), eqp("S", "T"))
	got, ok := reassociate(q)
	if !ok {
		t.Fatal("reassociation must apply")
	}
	if got.String() != "(R - (S - T))" {
		t.Errorf("reassociated = %v", got)
	}
	// Graph is preserved (the §3.2 observation).
	g1, err1 := GraphOf(q)
	g2, err2 := GraphOf(got)
	if err1 != nil || err2 != nil || !g1.Equal(g2) {
		t.Error("reassociation must preserve the query graph")
	}
}

func TestReassociateMovesConjunct(t *testing.T) {
	// ((R - S) -[p_st ∧ p_rt] T): conjunct p_rt references Q1=R, so it
	// moves onto the inner operator: (R -[p_rs ∧ p_rt] (S -[p_st] T)).
	q := NewJoin(
		NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")),
		NewLeaf("T"),
		predicate.NewAnd(eqp("S", "T"), eqp("R", "T")))
	got, ok := reassociate(q)
	if !ok {
		t.Fatal("reassociation with conjunct movement must apply for joins")
	}
	if got.String() != "(R - (S - T))" {
		t.Errorf("shape = %v", got)
	}
	rootPred := got.Pred.String()
	if !strings.Contains(rootPred, "R.a = S.a") || !strings.Contains(rootPred, "R.a = T.a") {
		t.Errorf("root predicate after move = %q", rootPred)
	}
	innerPred := got.Right.Pred.String()
	if innerPred != "S.a = T.a" {
		t.Errorf("inner predicate = %q", innerPred)
	}
	g1, _ := GraphOf(q)
	g2, err := GraphOf(got)
	if err != nil || !g1.Equal(g2) {
		t.Error("conjunct-moving reassociation must preserve the graph")
	}
}

func TestReassociateRejections(t *testing.T) {
	// Predicate does not reference Q2 = S: ((R - S) -[p_rt] T).
	q1 := NewJoin(NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")), NewLeaf("T"), eqp("R", "T"))
	if _, ok := reassociate(q1); ok {
		t.Error("must reject: predicate references only Q1")
	}
	// Conjunct movement with an outerjoin: ((R -> S) -[p_st ∧ p_rt] T).
	q2 := NewJoin(
		NewOuter(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")),
		NewLeaf("T"),
		predicate.NewAnd(eqp("S", "T"), eqp("R", "T")))
	if _, ok := reassociate(q2); ok {
		t.Error("must reject: conjunct movement requires two regular joins")
	}
	// Left child is a leaf.
	q3 := NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S"))
	if _, ok := reassociate(q3); ok {
		t.Error("must reject: no inner operator")
	}
	// Outer operator at ⊙2 referencing only Q1 (applicability requires Q2).
	q4 := NewOuter(NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")), NewLeaf("T"), eqp("R", "T"))
	if _, ok := reassociate(q4); ok {
		t.Error("must reject: outer predicate references only Q1")
	}
	// Non-join-like root.
	q5 := NewAnti(NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")), NewLeaf("T"), eqp("S", "T"))
	if _, ok := reassociate(q5); ok {
		t.Error("must reject: antijoin is outside the IT operator set")
	}
}

func TestReassociateOuterjoins(t *testing.T) {
	// ((X -> Y) -> Z) reassociates to (X -> (Y -> Z)) (identity 12 shape).
	q := NewOuter(NewOuter(NewLeaf("X"), NewLeaf("Y"), eqp("X", "Y")), NewLeaf("Z"), eqp("Y", "Z"))
	got, ok := reassociate(q)
	if !ok || got.String() != "(X -> (Y -> Z))" {
		t.Errorf("outer reassociation: %v %v", got, ok)
	}
	// ((X - Y) -> Z) => (X - (Y -> Z)) (identity 11 shape).
	q2 := NewOuter(NewJoin(NewLeaf("X"), NewLeaf("Y"), eqp("X", "Y")), NewLeaf("Z"), eqp("Y", "Z"))
	got2, ok := reassociate(q2)
	if !ok || got2.String() != "(X - (Y -> Z))" {
		t.Errorf("mixed reassociation: %v %v", got2, ok)
	}
	// ((X -> Y) - Z) => (X -> (Y - Z)): syntactically applicable (it is
	// the non-preserving [X→Y—Z] pattern caught by Lemma 2, not by BT
	// applicability).
	q3 := NewJoin(NewOuter(NewLeaf("X"), NewLeaf("Y"), eqp("X", "Y")), NewLeaf("Z"), eqp("Y", "Z"))
	got3, ok := reassociate(q3)
	if !ok || got3.String() != "(X -> (Y - Z))" {
		t.Errorf("suspect reassociation: %v %v", got3, ok)
	}
}

func TestApplicableBTsPreserveGraph(t *testing.T) {
	q := NewOuter(
		NewJoin(NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")), NewLeaf("T"), eqp("S", "T")),
		NewLeaf("U"), eqp("T", "U"))
	g, err := GraphOf(q)
	if err != nil {
		t.Fatal(err)
	}
	bts := ApplicableBTs(q)
	if len(bts) == 0 {
		t.Fatal("expected applicable BTs")
	}
	var sawReversal, sawReassoc bool
	for _, bt := range bts {
		if bt.Kind == Reversal {
			sawReversal = true
		} else {
			sawReassoc = true
		}
		if !Implements(bt.Result, g) {
			t.Errorf("BT %v broke the graph: %v", bt, bt.Result)
		}
		if bt.String() == "" {
			t.Error("BT.String empty")
		}
	}
	if !sawReversal || !sawReassoc {
		t.Errorf("expected both BT kinds, reversal=%v reassoc=%v", sawReversal, sawReassoc)
	}
}

func TestApplicableBTsAtDepth(t *testing.T) {
	// The inner ((R-S)-T) sits under the root; reassociation must also be
	// offered at path [0].
	q := NewOuter(
		NewJoin(NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")), NewLeaf("T"), eqp("S", "T")),
		NewLeaf("U"), eqp("T", "U"))
	found := false
	for _, bt := range ApplicableBTs(q) {
		if bt.Kind == Reassociation && len(bt.Path) == 1 && bt.Path[0] == 0 {
			found = true
			if bt.Result.String() != "((R - (S - T)) -> U)" {
				t.Errorf("deep reassociation = %v", bt.Result)
			}
		}
	}
	if !found {
		t.Error("no reassociation found at path [0]")
	}
}

func TestClosureChain(t *testing.T) {
	// Pure join chain R-S-T: closure must contain every IT (full
	// enumeration: 8 trees).
	q := NewJoin(NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")), NewLeaf("T"), eqp("S", "T"))
	cl, err := Closure(q, 1000)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := GraphOf(q)
	all, err := EnumerateITs(g, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl) != len(all) {
		t.Fatalf("closure size %d != enumeration size %d", len(cl), len(all))
	}
	for _, it := range all {
		if _, ok := cl[it.StringWithPreds()]; !ok {
			t.Errorf("IT missing from closure: %v", it)
		}
	}
}

func TestClosureLimit(t *testing.T) {
	q := NewJoin(NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")), NewLeaf("T"), eqp("S", "T"))
	if _, err := Closure(q, 2); err == nil {
		t.Error("closure must respect the limit")
	}
}

func TestBTPath(t *testing.T) {
	from := NewJoin(NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S")), NewLeaf("T"), eqp("S", "T"))
	to := NewJoin(NewLeaf("R"), NewJoin(NewLeaf("S"), NewLeaf("T"), eqp("S", "T")), eqp("R", "S"))
	path, err := BTPath(from, to, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) < 2 || !path[0].Equal(from) || !path[len(path)-1].Equal(to) {
		t.Fatalf("path = %v", path)
	}
	// Trivial path.
	self, err := BTPath(from, from, 10)
	if err != nil || len(self) != 1 {
		t.Errorf("self path = %v, %v", self, err)
	}
	// Unreachable target (different graph).
	other := NewJoin(NewLeaf("R"), NewLeaf("S"), eqp("R", "S"))
	if _, err := BTPath(from, other, 1000); err == nil {
		t.Error("unreachable target must fail")
	}
	// Limit.
	if _, err := BTPath(from, to, 1); err == nil {
		t.Error("limit must be enforced")
	}
}

func TestBTKindString(t *testing.T) {
	if Reversal.String() != "reversal" || Reassociation.String() != "reassociation" {
		t.Error("BTKind.String broken")
	}
}

// TestLemma3BTPathBetweenFigure1Trees (E11): on the nice Figure 1 graph
// a sequence of basic transforms leads from the first implementing tree
// to every other and back — so, composed, between any two — and every
// tree on the way implements the graph.
func TestLemma3BTPathBetweenFigure1Trees(t *testing.T) {
	g := figure1Graph(t)
	all, err := EnumerateITs(g, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range all {
		for _, pair := range [][2]*Node{{all[0], it}, {it, all[0]}} {
			from, to := pair[0], pair[1]
			path, err := BTPath(from, to, 1000)
			if err != nil {
				t.Fatalf("%s to %s: %v", from, to, err)
			}
			if !path[0].Equal(from) || !path[len(path)-1].Equal(to) {
				t.Fatalf("%s to %s: path %v", from, to, path)
			}
			for _, step := range path {
				if !Implements(step, g) {
					t.Fatalf("%s to %s: step %s leaves the graph", from, to, step)
				}
			}
		}
	}
}
