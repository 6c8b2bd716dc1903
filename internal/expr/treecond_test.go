package expr

import (
	"math/rand"
	"testing"
)

func TestTreeConditionFixedCases(t *testing.T) {
	cases := []struct {
		name string
		q    *Node
		want bool
	}{
		{"join chain", NewJoin(NewJoin(NewLeaf("A"), NewLeaf("B"), eqp("A", "B")), NewLeaf("C"), eqp("B", "C")), true},
		{"outer chain", NewOuter(NewOuter(NewLeaf("A"), NewLeaf("B"), eqp("A", "B")), NewLeaf("C"), eqp("B", "C")), true},
		{"join then outer", NewOuter(NewJoin(NewLeaf("A"), NewLeaf("B"), eqp("A", "B")), NewLeaf("C"), eqp("B", "C")), true},
		{"outer onto join (Example 2)", NewOuter(NewLeaf("A"),
			NewJoin(NewLeaf("B"), NewLeaf("C"), eqp("B", "C")), eqp("A", "B")), false},
		{"join over null-supplied rel", NewJoin(
			NewOuter(NewLeaf("A"), NewLeaf("B"), eqp("A", "B")), NewLeaf("C"), eqp("B", "C")), false},
		{"join over preserved rel is fine", NewJoin(
			NewOuter(NewLeaf("A"), NewLeaf("B"), eqp("A", "B")), NewLeaf("C"), eqp("A", "C")), true},
		{"double null supply (X -> Y <- Z)", NewRightOuter(
			NewOuter(NewLeaf("X"), NewLeaf("Y"), eqp("X", "Y")), NewLeaf("Z"), eqp("Z", "Y")), false},
		{"right outer chain", NewRightOuter(NewLeaf("B"), NewLeaf("A"), eqp("A", "B")), true},
		{"antijoin rejected", NewAnti(NewLeaf("A"), NewLeaf("B"), eqp("A", "B")), false},
	}
	for _, tc := range cases {
		got, reason := TreeCondition(tc.q)
		if got != tc.want {
			t.Errorf("%s: TreeCondition(%s) = %v (%s), want %v", tc.name, tc.q, got, reason, tc.want)
		}
	}
}

// randomWellFormedTree builds a random join/outerjoin tree over distinct
// relations whose operator predicates each reference one relation per
// side — so graph(q) is always defined.
func randomWellFormedTree(rnd *rand.Rand, rels []string) *Node {
	if len(rels) == 1 {
		return NewLeaf(rels[0])
	}
	k := 1 + rnd.Intn(len(rels)-1)
	left := randomWellFormedTree(rnd, rels[:k])
	right := randomWellFormedTree(rnd, rels[k:])
	lrel := rels[rnd.Intn(k)]
	rrel := rels[k:][rnd.Intn(len(rels)-k)]
	p := eqp(lrel, rrel)
	switch rnd.Intn(3) {
	case 0:
		return NewJoin(left, right, p)
	case 1:
		return NewOuter(left, right, p)
	default:
		return NewRightOuter(left, right, p)
	}
}

// TestTreeConditionMatchesGraphNiceness (E18): the §6.3 conjecture — the
// tree-level conditions coincide with graph niceness on every well-formed
// tree.
func TestTreeConditionMatchesGraphNiceness(t *testing.T) {
	rnd := rand.New(rand.NewSource(81))
	names := []string{"A", "B", "C", "D", "E", "F"}
	agreeTrue, agreeFalse := 0, 0
	for trial := 0; trial < 4000; trial++ {
		n := 2 + rnd.Intn(5)
		q := randomWellFormedTree(rnd, names[:n])
		g, err := GraphOf(q)
		if err != nil {
			t.Fatalf("trial %d: graph undefined for generated tree %s: %v", trial, q.StringWithPreds(), err)
		}
		niceness, niceReason := g.IsNice()
		treeOK, treeReason := TreeCondition(q)
		if niceness != treeOK {
			t.Fatalf("trial %d: disagreement on %s\n graph: %v (%s)\n tree:  %v (%s)\n%v",
				trial, q.StringWithPreds(), niceness, niceReason, treeOK, treeReason, g)
		}
		if niceness {
			agreeTrue++
		} else {
			agreeFalse++
		}
	}
	if agreeTrue == 0 || agreeFalse == 0 {
		t.Errorf("generator must exercise both outcomes: %d/%d", agreeTrue, agreeFalse)
	}
}

// TestTreeConditionSampleBalanced (E18): on another 4 000 random
// well-formed trees the tree conditions again agree with graph niceness,
// and the sample is roughly half nice, half not.
func TestTreeConditionSampleBalanced(t *testing.T) {
	rnd := rand.New(rand.NewSource(1998))
	names := []string{"A", "B", "C", "D", "E", "F"}
	const trials = 4000
	nice := 0
	for trial := 0; trial < trials; trial++ {
		q := randomWellFormedTree(rnd, names[:2+rnd.Intn(5)])
		g, err := GraphOf(q)
		if err != nil {
			t.Fatal(err)
		}
		graphNice, _ := g.IsNice()
		if treeOK, why := TreeCondition(q); treeOK != graphNice {
			t.Fatalf("trial %d: tree condition %v (%s), graph niceness %v on %s", trial, treeOK, why, graphNice, q.StringWithPreds())
		}
		if graphNice {
			nice++
		}
	}
	if nice < trials*3/10 || nice > trials*7/10 {
		t.Errorf("%d of %d trees nice; want roughly half", nice, trials)
	}
}
