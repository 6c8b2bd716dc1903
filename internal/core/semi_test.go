package core

// Experiment E17: the §6.3 outlook made executable. The paper conjectures
// join/semijoin reorderability has additional forbidden subgraphs —
// "semijoin edges in series" — and fewer preserving transforms. These
// tests validate the IsNiceSemi conditions from both sides: graphs that
// pass have all implementing trees valid and agreeing; each forbidden
// pattern admits an invalid or disagreeing tree.

import (
	"math/rand"
	"strings"
	"testing"

	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/workload"
)

// TestSemiExtensionSoundness: random graphs passing IsNiceSemi have every
// implementing tree evaluable and all results equal.
func TestSemiExtensionSoundness(t *testing.T) {
	rnd := rand.New(rand.NewSource(61))
	graphs, trees := 0, 0
	for trial := 0; trial < 120; trial++ {
		g := workload.RandomSemiGraph(rnd, 1+rnd.Intn(3), rnd.Intn(2), 1+rnd.Intn(2))
		if ok, reason := g.IsNiceSemi(); !ok {
			t.Fatalf("generator invariant: %s\n%v", reason, g)
		}
		a := AnalyzeGraph(g)
		if !a.Free || !a.SemiExtension {
			t.Fatalf("analysis should report free via the extension: %+v", a)
		}
		if n, err := expr.CountITs(g, false); err != nil || n > maxVerifyITs {
			continue // keep exhaustive verification cheap
		}
		db := workload.RandomDB(rnd, g, 5)
		res, err := Verify(g, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.InvalidTree != nil {
			t.Fatalf("trial %d: nice-with-semi graph produced invalid tree %s (%v)\n%v",
				trial, res.InvalidTree, res.InvalidErr, g)
		}
		if !res.AllEqual {
			t.Fatalf("trial %d: EXTENSION VIOLATION\ngraph:\n%v\n%s:\n%v\nvs %s:\n%v",
				trial, g, res.WitnessA, res.ResultA, res.WitnessB, res.ResultB)
		}
		graphs++
		trees += res.ITCount
	}
	if trees < 400 {
		t.Errorf("only %d trees verified", trees)
	}
}

func semiGraph(t *testing.T, build func(g *graph.Graph) error) *graph.Graph {
	t.Helper()
	g := graph.New()
	if err := build(g); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSemiSeriesInvalidTree: semijoin edges in series admit an
// implementing tree whose predicate references consumed attributes — the
// §6.3 forbidden subgraph, witnessed by an invalid tree.
func TestSemiSeriesInvalidTree(t *testing.T) {
	g := semiGraph(t, func(g *graph.Graph) error {
		if err := g.AddSemiEdge("A", "B", eqp("A", "B")); err != nil {
			return err
		}
		return g.AddSemiEdge("B", "C", eqp("B", "C"))
	})
	if ok, _ := g.IsNiceSemi(); ok {
		t.Fatal("series must be rejected by the checker")
	}
	rnd := rand.New(rand.NewSource(62))
	db := workload.RandomDB(rnd, g, 4)
	res, err := Verify(g, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllEqual || res.InvalidTree == nil {
		t.Fatalf("expected an invalid implementing tree, got %+v", res)
	}
	// The invalid tree is (A |x B) |x C (or its reversal): B consumed
	// before the second semijoin needs it.
	if err := expr.CheckVisibility(res.InvalidTree); err == nil {
		t.Error("witness should fail visibility")
	}
}

// TestSemiNullSuppliedSourceDisagrees: X → Y with Y ~> Z admits two valid
// trees with different results — padding survives X → (Y ⋉ Z) but not
// (X → Y) ⋉ Z.
func TestSemiNullSuppliedSourceDisagrees(t *testing.T) {
	g := semiGraph(t, func(g *graph.Graph) error {
		if err := g.AddOuterEdge("X", "Y", eqp("X", "Y")); err != nil {
			return err
		}
		return g.AddSemiEdge("Y", "Z", eqp("Y", "Z"))
	})
	if ok, _ := g.IsNiceSemi(); ok {
		t.Fatal("null-supplied semijoin source must be rejected")
	}
	rnd := rand.New(rand.NewSource(63))
	found := false
	for trial := 0; trial < 500 && !found; trial++ {
		db := workload.RandomDB(rnd, g, 4)
		res, err := Verify(g, db)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllEqual && res.InvalidTree == nil {
			found = true // a genuine semantic disagreement, not invalidity
		}
	}
	if !found {
		t.Error("no semantic counterexample found for the null-supplied semijoin source")
	}
}

// TestSemiConsumedNodeJoinsElsewhere: A ~> B with B — C admits an invalid
// tree ((A ⋉ B) — C needs B's attributes).
func TestSemiConsumedNodeJoinsElsewhere(t *testing.T) {
	g := semiGraph(t, func(g *graph.Graph) error {
		if err := g.AddSemiEdge("A", "B", eqp("A", "B")); err != nil {
			return err
		}
		return g.AddJoinEdge("B", "C", eqp("B", "C"))
	})
	if ok, _ := g.IsNiceSemi(); ok {
		t.Fatal("consumed node with a join edge must be rejected")
	}
	rnd := rand.New(rand.NewSource(64))
	db := workload.RandomDB(rnd, g, 4)
	res, err := Verify(g, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllEqual || res.InvalidTree == nil {
		t.Fatalf("expected an invalid tree, got %+v", res)
	}
}

// TestSemijoinGraphRoundTrip: a semijoin expression's graph regenerates
// trees that include the original.
func TestSemijoinGraphRoundTrip(t *testing.T) {
	q := expr.NewSemi(
		expr.NewJoin(expr.NewLeaf("A"), expr.NewLeaf("B"), eqp("A", "B")),
		expr.NewLeaf("Z"), eqp("A", "Z"))
	g, err := expr.GraphOf(q)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasSemiEdges() {
		t.Fatal("graph must carry the semijoin edge")
	}
	its, err := expr.EnumerateITs(g, true)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, it := range its {
		if it.Equal(q) {
			found = true
		}
		if !expr.Implements(it, g) {
			t.Errorf("IT %s does not implement the graph", it.StringWithPreds())
		}
	}
	if !found {
		t.Errorf("original tree missing from enumeration: %v", its)
	}
	// RightSemi round-trips too.
	rq := &expr.Node{Op: expr.RightSemi, Left: expr.NewLeaf("Z"), Right: expr.NewLeaf("A"), Pred: eqp("A", "Z")}
	rg, err := expr.GraphOf(rq)
	if err != nil {
		t.Fatal(err)
	}
	if rg.Edges()[0].U != "A" || rg.Edges()[0].V != "Z" {
		t.Errorf("RightSemi edge orientation: %v", rg.Edges()[0])
	}
}

// TestVisibility: the static checker on hand-built trees.
func TestVisibility(t *testing.T) {
	// Valid: A |x (B - C)? semijoin consumes (B - C); pred references B —
	// visible inside the right operand at the time of the semijoin.
	ok1 := expr.NewSemi(expr.NewLeaf("A"),
		expr.NewJoin(expr.NewLeaf("B"), expr.NewLeaf("C"), eqp("B", "C")), eqp("A", "B"))
	if err := expr.CheckVisibility(ok1); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	// Invalid: (A |x B) - C on a B-referencing join predicate.
	bad := expr.NewJoin(
		expr.NewSemi(expr.NewLeaf("A"), expr.NewLeaf("B"), eqp("A", "B")),
		expr.NewLeaf("C"), eqp("B", "C"))
	if err := expr.CheckVisibility(bad); err == nil {
		t.Error("invalid tree accepted")
	}
	// Restrict over consumed attributes is invalid too.
	badR := expr.NewRestrict(
		expr.NewSemi(expr.NewLeaf("A"), expr.NewLeaf("B"), eqp("A", "B")),
		eqp("A", "B"))
	if err := expr.CheckVisibility(badR); err == nil {
		t.Error("restrict over consumed attrs accepted")
	}
	// Antijoin consumes its right side as well.
	badAJ := expr.NewJoin(
		expr.NewAnti(expr.NewLeaf("A"), expr.NewLeaf("B"), eqp("A", "B")),
		expr.NewLeaf("C"), eqp("B", "C"))
	if err := expr.CheckVisibility(badAJ); err == nil {
		t.Error("antijoin-consumed attrs accepted")
	}
}

// TestSemiForbiddenPatternsNotFree (E17, §6.3): the analyzer reports
// none of the three forbidden semijoin patterns as freely reorderable,
// while a pendant semijoin off a join core passes through the extension.
func TestSemiForbiddenPatternsNotFree(t *testing.T) {
	for shape, free := range map[string]bool{
		"A ~> B ~> C": false,
		"A ~> B - C":  false,
		"X -> Y ~> Z": false,
		"A - B ~> C":  true,
	} {
		g := graph.New()
		f := strings.Fields(shape)
		for i := 1; i < len(f); i += 2 {
			add := g.AddSemiEdge
			switch f[i] {
			case "-":
				add = g.AddJoinEdge
			case "->":
				add = g.AddOuterEdge
			}
			if err := add(f[i-1], f[i+1], eqp(f[i-1], f[i+1])); err != nil {
				t.Fatal(err)
			}
		}
		if a := AnalyzeGraph(g); a.Free != free {
			t.Errorf("%s: free = %v, want %v (%s)", shape, a.Free, free, a)
		}
	}
}
