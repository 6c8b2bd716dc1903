package expr

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"freejoin/internal/graph"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// oracleSplits is the split rule as the paper states it, kept as the
// reference the pair enumerator is tested against: of all the ways to cut
// the connected node set s in two, keep those whose halves are both
// connected and share an edge. Each unordered partition appears once (S1
// holds the lowest-index node), larger S1 first; Op is Leaf when the cut
// edges are not a single operator.
func oracleSplits(g *graph.Graph, s graph.NodeSet) []Split {
	var out []Split
	low := s.Lowest()
	for sub := (s - 1) & s; sub != 0; sub = (sub - 1) & s {
		s1, s2 := sub, s&^sub
		if !sub.Has(low) || !g.ConnectedSet(s1) || !g.ConnectedSet(s2) {
			continue
		}
		cut := g.CutEdges(s1, s2)
		if len(cut) == 0 {
			continue // would be a Cartesian product: excluded from ITs
		}
		directed := 0
		for _, e := range cut {
			if e.Kind != graph.JoinEdge {
				directed++
			}
		}
		sp := Split{S1: s1, S2: s2}
		switch {
		case directed == 0:
			sp.Op, sp.S1Preserved = Join, true
		case directed == 1 && len(cut) == 1:
			sp.Op = LeftOuter
			if cut[0].Kind == graph.SemiEdge {
				sp.Op = Semijoin
			}
			sp.S1Preserved = s1.Has(g.IndexOf(cut[0].U))
		}
		out = append(out, sp)
	}
	return out
}

// randomMixedGraph draws a connected graph over n nodes: a random
// spanning tree plus extra edges, of all three kinds.
func randomMixedGraph(rnd *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	name := func(i int) string { return string(rune('A' + i)) }
	add := func(u, v string) {
		p := predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))
		switch rnd.Intn(6) {
		case 0:
			_ = g.AddOuterEdge(u, v, p)
		case 1:
			_ = g.AddOuterEdge(v, u, p)
		case 2:
			_ = g.AddSemiEdge(u, v, p)
		default: // parallel-edge rejections are fine: the tree edge stays
			_ = g.AddJoinEdge(u, v, p)
		}
	}
	perm := rnd.Perm(n) // node numbering independent of the tree's shape
	g.MustAddNode(name(perm[0]))
	for i := 1; i < n; i++ {
		add(name(perm[rnd.Intn(i)]), name(perm[i]))
	}
	for k := rnd.Intn(n); k > 0; k-- {
		if i, j := rnd.Intn(n), rnd.Intn(n); i != j {
			add(name(i), name(j))
		}
	}
	return g
}

// checkSplits asserts that Splits yields exactly the oracle's splits for
// every connected subset of g, each once, with the cut it claims, in an
// order in which both halves are complete before they are combined.
func checkSplits(t *testing.T, g *graph.Graph) {
	t.Helper()
	want := map[graph.NodeSet][]Split{}
	all := g.AllNodes()
	for s := graph.NodeSet(1); s <= all && s != 0; s++ {
		if s.Count() >= 2 && g.ConnectedSet(s) {
			want[s] = oracleSplits(g, s)
		}
	}
	got := map[graph.NodeSet][]Split{}
	Splits(g, func(sp Split) bool {
		s := sp.S1 | sp.S2
		for _, half := range []graph.NodeSet{sp.S1, sp.S2} {
			if len(got[half]) != len(want[half]) {
				t.Fatalf("split %b|%b yielded before its half %b was complete (%d of %d)\n%s",
					sp.S1, sp.S2, half, len(got[half]), len(want[half]), g)
			}
		}
		var cut []int
		for i, e := range g.Edges() {
			u, v := e.Ends()
			if (sp.S1.Has(u) && sp.S2.Has(v)) || (sp.S1.Has(v) && sp.S2.Has(u)) {
				cut = append(cut, i)
			}
		}
		if !reflect.DeepEqual(cut, sp.Cut) {
			t.Fatalf("split %b|%b: cut %v, want %v\n%s", sp.S1, sp.S2, sp.Cut, cut, g)
		}
		sp.Cut = nil
		got[s] = append(got[s], sp)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("splits cover %d node sets, want %d connected ones\n%s", len(got), len(want), g)
	}
	for s, sps := range got {
		sort.Slice(sps, func(i, j int) bool { return sps[i].S1 > sps[j].S1 })
		if !reflect.DeepEqual(sps, want[s]) {
			t.Fatalf("set %b: splits differ\n got %+v\nwant %+v\n%s", s, sps, want[s], g)
		}
	}
}

func TestSplitsMatchDefinition(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		checkSplits(t, randomMixedGraph(rnd, 2+rnd.Intn(6)))
	}
}

// TestSplitsStopAndScale: a false yield ends the enumeration at once,
// and a 64-node chain — every bit of a NodeSet in use, 2^64 subsets to a
// power-set sweep — is enumerated in its (n^3-n)/6 edge cuts.
func TestSplitsStopAndScale(t *testing.T) {
	g := graph.New()
	for i := 1; i < 64; i++ {
		u, v := fmt.Sprintf("N%d", i-1), fmt.Sprintf("N%d", i)
		if err := g.AddJoinEdge(u, v, predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))); err != nil {
			t.Fatal(err)
		}
	}
	pairs := 0
	Splits(g, func(sp Split) bool { pairs++; return true })
	if want := (64*64*64 - 64) / 6; pairs != want {
		t.Fatalf("64-chain: %d pairs, want %d", pairs, want)
	}
	pairs = 0
	Splits(g, func(sp Split) bool { pairs++; return pairs < 10 })
	if pairs != 10 {
		t.Fatalf("enumeration continued after yield returned false: %d pairs", pairs)
	}
	if n, err := CountITs(g.InducedSubgraph(0xff), true); err != nil || n != 429 {
		t.Fatalf("8-chain has Catalan(7) = 429 trees, got %d (%v)", n, err)
	}
}
