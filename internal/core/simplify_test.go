package core

import (
	"math/rand"
	"testing"

	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/workload"
)

// strongRestrict returns σ[rel.a = 1].
func strongRestrict(child *expr.Node, rel string) *expr.Node {
	return expr.NewRestrict(child, predicate.EqConst(relation.A(rel, "a"), relation.Int(1)))
}

func TestSimplifyRestrictionOverOuterjoin(t *testing.T) {
	// σ[S.a = 1](R -> S): S is null-supplied but the restriction is strong
	// on S.a, so the outerjoin becomes a join.
	q := strongRestrict(expr.NewOuter(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S")), "S")
	got, n := Simplify(q, SimplifyOptions{})
	if n != 1 {
		t.Fatalf("conversions = %d", n)
	}
	if got.Left.Op != expr.Join {
		t.Fatalf("outerjoin not converted: %v", got)
	}
}

func TestSimplifyRestrictionOnPreservedSideNoChange(t *testing.T) {
	// σ[R.a = 1](R -> S): R is preserved; no conversion.
	q := strongRestrict(expr.NewOuter(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S")), "R")
	got, n := Simplify(q, SimplifyOptions{})
	if n != 0 || got != q {
		t.Fatalf("unexpected conversion: %d, %v", n, got)
	}
}

func TestSimplifyNonStrongRestrictionNoChange(t *testing.T) {
	// σ[S.a is null](R -> S): is-null is not strong; padding survives.
	q := expr.NewRestrict(
		expr.NewOuter(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S")),
		predicate.NewIsNull(relation.A("S", "a")))
	if _, n := Simplify(q, SimplifyOptions{}); n != 0 {
		t.Fatal("non-strong restriction must not convert")
	}
}

func TestSimplifyJoinPredicateTriggers(t *testing.T) {
	// (R -> S) - T on S.a = T.a: the regular join's predicate is strong on
	// S, and S is null-supplied below — converts to (R - S) - T.
	q := expr.NewJoin(
		expr.NewOuter(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S")),
		expr.NewLeaf("T"), eqp("S", "T"))
	got, n := Simplify(q, SimplifyOptions{})
	if n != 1 || got.Left.Op != expr.Join {
		t.Fatalf("join-predicate conversion failed: %d, %v", n, got)
	}
}

func TestSimplifyCascades(t *testing.T) {
	// σ[T.a = 1](R -> (S -> T)): the restriction kills padding of T, so
	// the inner outerjoin converts; its join predicate (S.a = T.a) is
	// strong on S... but S sits on the *preserved* side of the outer
	// outerjoin relative to nothing — the outer outerjoin pads S∪T for
	// unmatched R? No: R is preserved, (S->T) null-supplied, and the
	// restriction on T is strong, so the OUTER outerjoin also converts.
	q := strongRestrict(
		expr.NewOuter(expr.NewLeaf("R"),
			expr.NewOuter(expr.NewLeaf("S"), expr.NewLeaf("T"), eqp("S", "T")),
			eqp("R", "S")),
		"T")
	got, n := Simplify(q, SimplifyOptions{})
	if n != 2 {
		t.Fatalf("conversions = %d, tree = %v", n, got)
	}
	if got.Left.Op != expr.Join || got.Left.Right.Op != expr.Join {
		t.Fatalf("both outerjoins should convert: %v", got)
	}
}

func TestSimplifyRightOuter(t *testing.T) {
	// σ[S.a = 1](S <- R): S null-supplied on the left of a RightOuter.
	q := strongRestrict(expr.NewRightOuter(expr.NewLeaf("S"), expr.NewLeaf("R"), eqp("R", "S")), "S")
	got, n := Simplify(q, SimplifyOptions{})
	if n != 1 || got.Left.Op != expr.Join {
		t.Fatalf("RightOuter conversion failed: %d, %v", n, got)
	}
}

func TestSimplifyOuterPredicateExtension(t *testing.T) {
	// R -> (S -> T) where the outer predicate references T strongly
	// (R.a = T.a): with the extension the inner outerjoin converts; by
	// default (paper rule) it does not.
	q := expr.NewOuter(expr.NewLeaf("R"),
		expr.NewOuter(expr.NewLeaf("S"), expr.NewLeaf("T"), eqp("S", "T")),
		predicate.Eq(relation.A("R", "a"), relation.A("T", "a")))
	if _, n := Simplify(q, SimplifyOptions{}); n != 0 {
		t.Fatal("paper rule must not use outerjoin predicates")
	}
	got, n := Simplify(q, SimplifyOptions{UseOuterPredicates: true})
	if n != 1 || got.Right.Op != expr.Join {
		t.Fatalf("extension conversion failed: %d, %v", n, got)
	}
}

func TestSimplifyLeavesOtherOpsAlone(t *testing.T) {
	q := strongRestrict(
		expr.NewProject(
			expr.NewAnti(expr.NewLeaf("R"), expr.NewLeaf("S"), eqp("R", "S")),
			[]relation.Attr{relation.A("R", "a")}, false),
		"R")
	if _, n := Simplify(q, SimplifyOptions{}); n != 0 {
		t.Fatal("antijoin/project must pass through unchanged")
	}
}

// TestSimplifyPreservesResults: the rewrite never changes query results,
// under both the paper rule and the extension, on randomized queries.
func TestSimplifyPreservesResults(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	converted := 0
	for trial := 0; trial < 400; trial++ {
		// Build a random 3-relation query with outerjoins and a strong
		// restriction on one relation.
		x := expr.NewLeaf("X")
		y := expr.NewLeaf("Y")
		z := expr.NewLeaf("Z")
		var q *expr.Node
		pxy, pyz := workload.RandomPredicate(rnd, "X", "Y"), workload.RandomPredicate(rnd, "Y", "Z")
		switch rnd.Intn(4) {
		case 0:
			q = expr.NewOuter(expr.NewOuter(x, y, pxy), z, pyz)
		case 1:
			q = expr.NewOuter(x, expr.NewOuter(y, z, pyz), pxy)
		case 2:
			q = expr.NewOuter(expr.NewJoin(x, y, pxy), z, pyz)
		default:
			q = expr.NewOuter(x, expr.NewJoin(y, z, pyz), pxy)
		}
		rel := []string{"X", "Y", "Z"}[rnd.Intn(3)]
		q = expr.NewRestrict(q, predicate.EqConst(relation.A(rel, "a"), relation.Int(int64(rnd.Intn(3)))))

		db := expr.DB{
			"X": workload.RandomRelation(rnd, "X", 5),
			"Y": workload.RandomRelation(rnd, "Y", 5),
			"Z": workload.RandomRelation(rnd, "Z", 5),
		}
		want, err := q.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []SimplifyOptions{{}, {UseOuterPredicates: true}} {
			simplified, n := Simplify(q, opts)
			converted += n
			got, err := simplified.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualBag(want) {
				t.Fatalf("trial %d: simplification changed the result\nq: %s\nsimplified: %s",
					trial, q.StringWithPreds(), simplified.StringWithPreds())
			}
		}
	}
	if converted == 0 {
		t.Error("no conversions exercised")
	}
}

// TestSimplifyPreservesFreeReorderability validates §4's conjecture: "if
// the restriction predicate occurs after all outerjoins, then the
// simplification cannot introduce new violations of free reorderability."
// For random freely-reorderable blocks under a strong restriction, the
// simplified block is still freely reorderable.
func TestSimplifyPreservesFreeReorderability(t *testing.T) {
	rnd := rand.New(rand.NewSource(32))
	converted, checked := 0, 0
	for trial := 0; trial < 300; trial++ {
		g := workload.RandomNiceGraph(rnd, 1+rnd.Intn(3), rnd.Intn(3))
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatal(err)
		}
		block := its[rnd.Intn(len(its))]
		if ok, reason := FreelyReorderable(block); !ok {
			t.Fatalf("generator invariant: %s", reason)
		}
		// Restrict strongly on a random relation, above the block.
		rels := block.Relations()
		rel := rels[rnd.Intn(len(rels))]
		q := expr.NewRestrict(block, predicate.EqConst(relation.A(rel, "a"), relation.Int(1)))
		simplified, n := Simplify(q, SimplifyOptions{})
		converted += n
		// The simplified query is σ(block'): block' must remain freely
		// reorderable.
		inner := simplified.Left
		if ok, reason := FreelyReorderable(inner); !ok {
			t.Fatalf("trial %d: simplification broke reorderability (%s)\nbefore: %s\nafter:  %s",
				trial, reason, block.StringWithPreds(), inner.StringWithPreds())
		}
		checked++
	}
	if converted == 0 || checked == 0 {
		t.Errorf("conjecture not exercised: %d conversions over %d checks", converted, checked)
	}
}

// TestReferentialIntegrityCounterexample reproduces §4's warning: in
// R1 → R2 → R3, substituting the (semantically equal, under referential
// integrity) join for the inner outerjoin leaves a query that is NOT
// freely reorderable.
func TestReferentialIntegrityCounterexample(t *testing.T) {
	orig := expr.NewOuter(expr.NewLeaf("R1"),
		expr.NewOuter(expr.NewLeaf("R2"), expr.NewLeaf("R3"), eqp("R2", "R3")),
		eqp("R1", "R2"))
	if ok, _ := FreelyReorderable(orig); !ok {
		t.Fatal("the outerjoin chain is freely reorderable")
	}
	replaced := expr.NewOuter(expr.NewLeaf("R1"),
		expr.NewJoin(expr.NewLeaf("R2"), expr.NewLeaf("R3"), eqp("R2", "R3")),
		eqp("R1", "R2"))
	if ok, reason := FreelyReorderable(replaced); ok {
		t.Fatalf("after the RI rewrite the query must NOT be freely reorderable (%s)", reason)
	}
}

// TestSimplifyCascadesPreservesResult (E12, §4): on a database where T
// matches, misses and pads, σ[T.a = 1](R → (S → T)) and its simplified
// form R − (S − T) return the same rows.
func TestSimplifyCascadesPreservesResult(t *testing.T) {
	q := strongRestrict(
		expr.NewOuter(expr.NewLeaf("R"),
			expr.NewOuter(expr.NewLeaf("S"), expr.NewLeaf("T"), eqp("S", "T")),
			eqp("R", "S")),
		"T")
	got, _ := Simplify(q, SimplifyOptions{})
	db := expr.DB{
		"R": relation.FromRows("R", []string{"a"}, []any{1}, []any{2}, []any{3}),
		"S": relation.FromRows("S", []string{"a"}, []any{1}, []any{2}),
		"T": relation.FromRows("T", []string{"a"}, []any{1}, []any{1}),
	}
	want, err := q.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	out, err := got.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 2 || !out.EqualBag(want) {
		t.Errorf("original:\n%v\nsimplified %s:\n%v", want, got, out)
	}
}
