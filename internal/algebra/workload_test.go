package algebra_test

// Identities 1, 10, 12 and 15 checked again on the workload package's
// databases (two columns, one value in seven null, comparisons over
// random columns): the generator the Theorem 1 and optimizer tests draw
// from.

import (
	"math/rand"
	"testing"

	"freejoin/internal/algebra"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/workload"
)

const workloadTrials = 120

// workloadTriple draws relations X, Y, Z of up to 6 rows and strong
// predicates P_xy and P_yz.
func workloadTriple(rnd *rand.Rand) (x, y, z *relation.Relation, pxy, pyz predicate.Predicate) {
	x = workload.RandomRelation(rnd, "X", 6)
	y = workload.RandomRelation(rnd, "Y", 6)
	z = workload.RandomRelation(rnd, "Z", 6)
	return x, y, z, workload.RandomPredicate(rnd, "X", "Y"), workload.RandomPredicate(rnd, "Y", "Z")
}

// must returns r, failing t on err.
func must(t *testing.T) func(r *relation.Relation, err error) *relation.Relation {
	return func(r *relation.Relation, err error) *relation.Relation {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// TestIdentities01And10WorkloadDatabases (E5, §2.2): join associativity
// (identity 1) and the outerjoin expansion X → Y = (X − Y) ∪ (X ▷ Y)
// (identity 10).
func TestIdentities01And10WorkloadDatabases(t *testing.T) {
	ev := must(t)
	rnd := rand.New(rand.NewSource(1990))
	for trial := 0; trial < workloadTrials; trial++ {
		x, y, z, pxy, pyz := workloadTriple(rnd)
		l1 := ev(algebra.Join(ev(algebra.Join(x, y, pxy)), z, pyz))
		r1 := ev(algebra.Join(x, ev(algebra.Join(y, z, pyz)), pxy))
		if !l1.EqualBag(r1) {
			t.Fatalf("trial %d: identity 1 violated:\n%v\nvs\n%v", trial, l1, r1)
		}
		l10 := ev(algebra.LeftOuterJoin(x, y, pxy))
		r10 := ev(algebra.Union(ev(algebra.Join(x, y, pxy)), ev(algebra.Antijoin(x, y, pxy))))
		if !l10.EqualBag(r10) {
			t.Fatalf("trial %d: identity 10 violated:\n%v\nvs\n%v", trial, l10, r10)
		}
	}
}

// TestIdentity12WorkloadDatabases (E6, §2.3): (X → Y) → Z = X → (Y → Z)
// holds with strong predicates, and the non-strong Example 3 shape
// "Z.a = Y.a or Y.a is null" breaks it on some database.
func TestIdentity12WorkloadDatabases(t *testing.T) {
	ev := must(t)
	assoc := func(x, y, z *relation.Relation, pxy, pyz predicate.Predicate) bool {
		l := ev(algebra.LeftOuterJoin(ev(algebra.LeftOuterJoin(x, y, pxy)), z, pyz))
		r := ev(algebra.LeftOuterJoin(x, ev(algebra.LeftOuterJoin(y, z, pyz)), pxy))
		return l.EqualBag(r)
	}
	rnd := rand.New(rand.NewSource(1991))
	for trial := 0; trial < workloadTrials; trial++ {
		if !assoc(workloadTriple(rnd)) {
			t.Fatalf("trial %d: identity 12 violated with strong predicates", trial)
		}
	}
	weak := workload.NonStrongPredicate("Z", "Y")
	for trial := 0; ; trial++ {
		if trial == 5000 {
			t.Fatal("no identity-12 violation found with a non-strong predicate")
		}
		x, y, z, pxy, _ := workloadTriple(rnd)
		if !assoc(x, y, z, pxy, weak) {
			break
		}
	}
}

// TestIdentity15WorkloadDatabases (E14, §6.2): on duplicate-free
// relations, X → (Y − Z) = (X → Y) GOJ[sch(X)] Z.
func TestIdentity15WorkloadDatabases(t *testing.T) {
	ev := must(t)
	rnd := rand.New(rand.NewSource(1996))
	for trial := 0; trial < workloadTrials; trial++ {
		x, y, z, pxy, pyz := workloadTriple(rnd)
		x, y, z = x.Dedup(), y.Dedup(), z.Dedup()
		lhs := ev(algebra.LeftOuterJoin(x, ev(algebra.Join(y, z, pyz)), pxy))
		rhs := ev(algebra.GeneralizedOuterJoin(ev(algebra.LeftOuterJoin(x, y, pxy)), z, pyz, x.Scheme().Attrs()))
		if !lhs.EqualBag(rhs) {
			t.Fatalf("trial %d: identity 15 violated:\n%v\nvs\n%v", trial, lhs, rhs)
		}
	}
}
