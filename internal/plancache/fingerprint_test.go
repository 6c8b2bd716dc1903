package plancache

import (
	"strings"
	"testing"

	"freejoin/internal/graph"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

func eq(u, ua, v, va string) predicate.Predicate {
	return predicate.Eq(relation.Attr{Rel: u, Name: ua}, relation.Attr{Rel: v, Name: va})
}

// Permuting node insertion order, edge insertion order, join-edge
// endpoint orientation, and conjunct order must not change the
// fingerprint: the graph is the key, not the way it was written down.
func TestFingerprintInvariance(t *testing.T) {
	g1 := graph.New()
	g1.MustAddNode("R")
	g1.MustAddNode("S")
	g1.MustAddNode("T")
	if err := g1.AddJoinEdge("R", "S", predicate.NewAnd(eq("R", "a", "S", "a"), eq("R", "b", "S", "b"))); err != nil {
		t.Fatal(err)
	}
	if err := g1.AddOuterEdge("S", "T", eq("S", "a", "T", "a")); err != nil {
		t.Fatal(err)
	}

	// Same graph: nodes in another order, the join edge flipped, its
	// conjuncts swapped, the edges added in reverse.
	g2 := graph.New()
	g2.MustAddNode("T")
	g2.MustAddNode("S")
	if err := g2.AddOuterEdge("S", "T", eq("S", "a", "T", "a")); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddJoinEdge("S", "R", predicate.NewAnd(eq("R", "b", "S", "b"), eq("R", "a", "S", "a"))); err != nil {
		t.Fatal(err)
	}

	f1, f2 := Of(g1), Of(g2)
	if f1 != f2 {
		t.Fatalf("fingerprints differ for the same graph:\n%s\nvs\n%s", f1.Canon, f2.Canon)
	}
	if f1.String() != f2.String() {
		t.Fatalf("hex forms differ: %s vs %s", f1, f2)
	}
}

// Outerjoin direction is semantics (it points at the null-supplied
// side) and must distinguish fingerprints; so must the join/outerjoin
// kind and the predicate itself.
func TestFingerprintSensitivity(t *testing.T) {
	build := func(f func(g *graph.Graph)) Fingerprint {
		g := graph.New()
		g.MustAddNode("R")
		g.MustAddNode("S")
		f(g)
		return Of(g)
	}
	base := build(func(g *graph.Graph) { g.AddOuterEdge("R", "S", eq("R", "a", "S", "a")) })
	flipped := build(func(g *graph.Graph) { g.AddOuterEdge("S", "R", eq("R", "a", "S", "a")) })
	joined := build(func(g *graph.Graph) { g.AddJoinEdge("R", "S", eq("R", "a", "S", "a")) })
	otherPred := build(func(g *graph.Graph) { g.AddOuterEdge("R", "S", eq("R", "b", "S", "b")) })

	for name, other := range map[string]Fingerprint{
		"flipped outerjoin":   flipped,
		"join vs outerjoin":   joined,
		"different predicate": otherPred,
	} {
		if base == other {
			t.Errorf("%s: fingerprint did not change", name)
		}
	}
}

// Extras participate in the key (residual filters, optimizer config).
func TestFingerprintExtras(t *testing.T) {
	g := graph.New()
	g.MustAddNode("R")
	g.MustAddNode("S")
	if err := g.AddJoinEdge("R", "S", eq("R", "a", "S", "a")); err != nil {
		t.Fatal(err)
	}
	plain := Of(g)
	withExtra := Of(g, "filter R: R.a = 1")
	if plain == withExtra {
		t.Fatal("extra did not change the fingerprint")
	}
	if !strings.Contains(withExtra.Canon, "filter R: R.a = 1") {
		t.Fatalf("extra missing from canon:\n%s", withExtra.Canon)
	}
}
