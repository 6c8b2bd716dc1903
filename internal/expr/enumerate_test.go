package expr

import (
	"fmt"
	"testing"

	"freejoin/internal/graph"
)

func chainGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i < n-1; i++ {
		u := string(rune('A' + i))
		v := string(rune('A' + i + 1))
		if err := g.AddJoinEdge(u, v, eqp(u, v)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func starGraph(t *testing.T, leaves int) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i < leaves; i++ {
		v := string(rune('B' + i))
		if err := g.AddJoinEdge("A", v, eqp("A", v)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestEnumerateChainCounts(t *testing.T) {
	// Join chains: modulo-reversal counts are the Catalan numbers
	// C(n-1) = 1, 2, 5, 14; full counts multiply by 2^(n-1).
	wantModulo := map[int]int{2: 1, 3: 2, 4: 5, 5: 14}
	for n, want := range wantModulo {
		g := chainGraph(t, n)
		its, err := EnumerateITs(g, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(its) != want {
			t.Errorf("chain %d: %d ITs modulo reversal, want %d", n, len(its), want)
		}
		full, err := EnumerateITs(g, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) != want*(1<<(n-1)) {
			t.Errorf("chain %d: %d full ITs, want %d", n, len(full), want*(1<<(n-1)))
		}
		// Counting agrees with materialization.
		c, err := CountITs(g, true)
		if err != nil || c != int64(want) {
			t.Errorf("chain %d: CountITs modulo = %d, %v", n, c, err)
		}
		cf, err := CountITs(g, false)
		if err != nil || cf != int64(len(full)) {
			t.Errorf("chain %d: CountITs full = %d, %v", n, cf, err)
		}
	}
}

func TestEnumerateStarCounts(t *testing.T) {
	// Star with k leaves: k! trees modulo reversal (leaves joined to the
	// center in any order).
	fact := func(k int) int {
		f := 1
		for i := 2; i <= k; i++ {
			f *= i
		}
		return f
	}
	for k := 1; k <= 4; k++ {
		g := starGraph(t, k)
		its, err := EnumerateITs(g, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(its) != fact(k) {
			t.Errorf("star %d: %d ITs, want %d", k, len(its), fact(k))
		}
	}
}

func TestEnumerateSingleNode(t *testing.T) {
	g := graph.New()
	g.MustAddNode("R")
	its, err := EnumerateITs(g, true)
	if err != nil || len(its) != 1 || its[0].Op != Leaf {
		t.Fatalf("single node: %v, %v", its, err)
	}
}

func TestEnumerateErrors(t *testing.T) {
	if _, err := EnumerateITs(graph.New(), true); err == nil {
		t.Error("empty graph must fail")
	}
	if _, err := CountITs(graph.New(), true); err == nil {
		t.Error("empty graph count must fail")
	}
	g := graph.New()
	g.MustAddNode("R")
	g.MustAddNode("S")
	if _, err := EnumerateITs(g, true); err == nil {
		t.Error("disconnected graph must fail")
	}
	if _, err := CountITs(g, true); err == nil {
		t.Error("disconnected graph count must fail")
	}
}

func TestEnumerateAllImplementGraph(t *testing.T) {
	// Every enumerated tree must implement the graph it came from —
	// including graphs with outerjoins and cycles.
	graphs := []*graph.Graph{}
	// Example 2 graph: A -> B - C.
	g1 := graph.New()
	if err := g1.AddOuterEdge("A", "B", eqp("A", "B")); err != nil {
		t.Fatal(err)
	}
	if err := g1.AddJoinEdge("B", "C", eqp("B", "C")); err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, g1)
	// Nice graph: join core + outer tree.
	g2 := graph.New()
	if err := g2.AddJoinEdge("A", "B", eqp("A", "B")); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddOuterEdge("B", "C", eqp("B", "C")); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddOuterEdge("C", "D", eqp("C", "D")); err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, g2)
	// Join cycle.
	g3 := graph.New()
	for _, e := range [][2]string{{"A", "B"}, {"B", "C"}, {"C", "A"}} {
		if err := g3.AddJoinEdge(e[0], e[1], eqp(e[0], e[1])); err != nil {
			t.Fatal(err)
		}
	}
	graphs = append(graphs, g3)

	for gi, g := range graphs {
		for _, modulo := range []bool{true, false} {
			its, err := EnumerateITs(g, modulo)
			if err != nil {
				t.Fatal(err)
			}
			if len(its) == 0 {
				t.Fatalf("graph %d: no ITs", gi)
			}
			seen := map[string]bool{}
			for _, it := range its {
				if !Implements(it, g) {
					itg, gerr := GraphOf(it)
					t.Fatalf("graph %d: IT %v does not implement its graph (got %v, err %v, want %v)",
						gi, it.StringWithPreds(), itg, gerr, g)
				}
				key := it.StringWithPreds()
				if seen[key] {
					t.Errorf("graph %d: duplicate IT %s", gi, key)
				}
				seen[key] = true
			}
		}
	}
}

func TestEnumerateExample2Graph(t *testing.T) {
	// A -> B - C has exactly two ITs modulo reversal: A -> (B - C) and
	// (A -> B) - C.
	g := graph.New()
	if err := g.AddOuterEdge("A", "B", eqp("A", "B")); err != nil {
		t.Fatal(err)
	}
	if err := g.AddJoinEdge("B", "C", eqp("B", "C")); err != nil {
		t.Fatal(err)
	}
	its, err := EnumerateITs(g, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(its) != 2 {
		t.Fatalf("example 2 graph: %d ITs, want 2: %v", len(its), its)
	}
	shapes := map[string]bool{}
	for _, it := range its {
		shapes[it.String()] = true
	}
	if !shapes["(A -> (B - C))"] || !shapes["((A -> B) - C)"] {
		t.Errorf("shapes = %v", shapes)
	}
}

func TestEnumerateMixedCutExcluded(t *testing.T) {
	// Graph A - B with A -> C: the partition {A} | {B, C} has a mixed cut
	// and must not produce an operator; only 2 ITs exist modulo reversal.
	g := graph.New()
	if err := g.AddJoinEdge("A", "B", eqp("A", "B")); err != nil {
		t.Fatal(err)
	}
	if err := g.AddOuterEdge("A", "C", eqp("A", "C")); err != nil {
		t.Fatal(err)
	}
	its, err := EnumerateITs(g, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(its) != 2 {
		t.Fatalf("%d ITs, want 2: %v", len(its), its)
	}
}

func TestEnumerateOuterOrientation(t *testing.T) {
	// Graph R -> S. Canonical (modulo) tree is (R -> S) even though S is
	// not the lowest node; full enumeration adds (S <- R).
	g := graph.New()
	if err := g.AddOuterEdge("R", "S", eqp("R", "S")); err != nil {
		t.Fatal(err)
	}
	its, err := EnumerateITs(g, true)
	if err != nil || len(its) != 1 || its[0].String() != "(R -> S)" {
		t.Fatalf("canonical outer: %v %v", its, err)
	}
	full, err := EnumerateITs(g, false)
	if err != nil || len(full) != 2 {
		t.Fatalf("full outer: %v %v", full, err)
	}
	shapes := map[string]bool{}
	for _, it := range full {
		shapes[it.String()] = true
	}
	if !shapes["(R -> S)"] || !shapes["(S <- R)"] {
		t.Errorf("full shapes = %v", shapes)
	}
}

// TestEnumerateMatchesClosure ties enumeration to the BT machinery on a
// nice graph with an outerjoin: the BT closure of any IT equals the full
// IT set (Lemma 3 on a fixed instance; the randomized version lives in
// package core's tests).
func TestEnumerateMatchesClosure(t *testing.T) {
	g := graph.New()
	if err := g.AddJoinEdge("A", "B", eqp("A", "B")); err != nil {
		t.Fatal(err)
	}
	if err := g.AddOuterEdge("B", "C", eqp("B", "C")); err != nil {
		t.Fatal(err)
	}
	all, err := EnumerateITs(g, false)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Closure(all[0], 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl) != len(all) {
		t.Fatalf("closure %d vs enumeration %d", len(cl), len(all))
	}
	for _, it := range all {
		if _, ok := cl[it.StringWithPreds()]; !ok {
			t.Errorf("missing from closure: %v", it.StringWithPreds())
		}
	}
}

// TestFigure2ImplementingTreeCount (E8): Figure 2's nice topology — a
// 4-node join core with a chord and two outerjoin trees directed
// outward — admits 2,008 implementing trees modulo reversal.
func TestFigure2ImplementingTreeCount(t *testing.T) {
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
	if nice, why := g.IsNice(); !nice {
		t.Fatalf("Figure 2 must be nice: %s", why)
	}
	if n, err := CountITs(g, true); err != nil || n != 2008 {
		t.Errorf("CountITs = %d, %v; want 2008", n, err)
	}
}

// TestPlanSpaceSizes (E16): join chains of n = 2..10 relations have the
// Catalan numbers C(n-1) of implementing trees modulo reversal and
// 2^(n-1) times that in full; outerjoin chains have exactly as many
// (direction constrains orientation, not association); a join star of
// k leaves has k! modulo reversal and k!·2^k in full.
func TestPlanSpaceSizes(t *testing.T) {
	catalan := []int64{1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862}
	check := func(name string, g *graph.Graph, modulo, full int64) {
		t.Helper()
		m, err := CountITs(g, true)
		if err != nil {
			t.Fatal(err)
		}
		f, err := CountITs(g, false)
		if err != nil {
			t.Fatal(err)
		}
		if m != modulo || f != full {
			t.Errorf("%s: %d / %d trees (modulo reversal / full), want %d / %d", name, m, f, modulo, full)
		}
	}
	for n := 2; n <= 10; n++ {
		want := catalan[n-1]
		check(fmt.Sprintf("join chain %d", n), chainGraph(t, n), want, want<<(n-1))
		outer := graph.New()
		for i := 0; i < n-1; i++ {
			u, v := string(rune('A'+i)), string(rune('A'+i+1))
			if err := outer.AddOuterEdge(u, v, eqp(u, v)); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("outerjoin chain %d", n), outer, want, want<<(n-1))
	}
	fact := int64(1)
	for k := 1; k <= 7; k++ {
		fact *= int64(k)
		check(fmt.Sprintf("join star %d", k), starGraph(t, k), fact, fact<<k)
	}
}
