package optimizer

import (
	"math/rand"
	"testing"

	"freejoin/internal/core"
	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/workload"
)

// checkSplitRule asserts that expr.Splits — the pair enumerator under
// both the DP and the IT enumerator — yields for every connected node
// set of g exactly the partitions the definition admits, each once: both
// halves connected, at least one edge between them, and the operator the
// cut edges collapse into (expr.Leaf when they are not one operator).
func checkSplitRule(t *testing.T, g *graph.Graph) {
	type split struct {
		s1, s2      graph.NodeSet
		op          expr.Op
		s1Preserved bool
	}
	want := map[split]bool{}
	for s, all := graph.NodeSet(1), g.AllNodes(); s <= all; s++ {
		if !g.ConnectedSet(s) {
			continue
		}
		for sub := (s - 1) & s; sub != 0; sub = (sub - 1) & s {
			cut := g.CutEdges(sub, s&^sub)
			if !sub.Has(s.Lowest()) || len(cut) == 0 || !g.ConnectedSet(sub) || !g.ConnectedSet(s&^sub) {
				continue
			}
			sp := split{s1: sub, s2: s &^ sub, op: expr.Join, s1Preserved: true}
			for _, e := range cut {
				if e.Kind != graph.JoinEdge {
					sp.op, sp.s1Preserved = expr.LeftOuter, sub.Has(g.IndexOf(e.U))
					if len(cut) > 1 {
						sp.op, sp.s1Preserved = expr.Leaf, false
						break
					}
				}
			}
			want[sp] = true
		}
	}
	expr.Splits(g, func(sp expr.Split) bool {
		got := split{sp.S1, sp.S2, sp.Op, sp.S1Preserved}
		if !want[got] {
			t.Fatalf("Splits yielded %+v, which the split rule does not admit (or twice)\ngraph:\n%s", got, g)
		}
		delete(want, got)
		return true
	})
	if len(want) != 0 {
		t.Fatalf("Splits missed %d partitions, e.g. %+v\ngraph:\n%s", len(want), want, g)
	}
}

// FuzzJoinTree decodes arbitrary byte strings into small query graphs,
// checks the split enumerator against the definition on each, and then
// drives them through the Yannakakis front door: BuildJoinTree and
// ReducerProgram must never panic (cyclic, disconnected, misoriented
// and semijoin graphs must come back as errors), and whenever the graph
// both has a join tree and is certified freely reorderable, the forced
// yannakakis plan must execute to exactly the reference algebra's bag
// on a small seeded database.
//
// Byte codec, one candidate edge per byte over nodes A..H:
//
//	bits 0-2  v endpoint
//	bits 3-5  u endpoint
//	bit 6     edge kind (0 join, 1 outerjoin u -> v)
//	bit 7     predicate (0: u.a = v.a, 1: u.a < v.b)
//
// Self-loops and edges the graph rejects (parallel pairs, second outer
// edge into one node) are skipped.
func FuzzJoinTree(f *testing.F) {
	f.Add([]byte{0x01, 0x0a})             // join chain A - B - C
	f.Add([]byte{0x41, 0x4a})             // outer chain A -> B -> C
	f.Add([]byte{0x01, 0x42})             // join A - B with outer leaf A -> C
	f.Add([]byte{0x01, 0x0a, 0x02})       // triangle: no join tree
	f.Add([]byte{0x01, 0x02, 0x03})       // join star at A
	f.Add([]byte{0x81, 0xc2})             // non-equi predicates, mixed kinds
	f.Add([]byte{0x41, 0x0a})             // outer A -> B then join B - C: tree but not nice
	f.Add([]byte{0x01, 0x0a, 0x13, 0x1c}) // longer chain

	names := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graph.New()
		edges := 0
		for _, b := range data {
			u, v := names[(b>>3)&0x07], names[b&0x07]
			if u == v {
				continue
			}
			var p predicate.Predicate
			if b&0x80 != 0 {
				p = predicate.Cmp(predicate.LtOp,
					predicate.Col(relation.A(u, "a")), predicate.Col(relation.A(v, "b")))
			} else {
				p = predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))
			}
			var err error
			if b&0x40 != 0 {
				err = g.AddOuterEdge(u, v, p)
			} else {
				err = g.AddJoinEdge(u, v, p)
			}
			if err == nil {
				edges++
			}
		}
		if edges == 0 {
			return
		}
		checkSplitRule(t, g)

		jt, err := graph.BuildJoinTree(g) // must not panic on any input
		if err != nil {
			return
		}
		steps := jt.ReducerProgram() // nor here
		if g.NumNodes() >= 2 && len(steps) == 0 {
			t.Fatalf("join tree over %d nodes produced an empty reducer program", g.NumNodes())
		}
		if g.NumNodes() > 5 || !core.AnalyzeGraph(g).Free {
			// Execution equivalence is only promised for freely-reorderable
			// graphs; keep the executed instances small.
			return
		}

		var seed int64
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		rnd := rand.New(rand.NewSource(seed))
		db := workload.RandomDanglingDB(rnd, g, 5, 0.4)
		o := New(catalogFor(db))
		o.Strategy = "yannakakis"
		p, _, err := planGraph(o, g)
		if err != nil {
			t.Fatalf("yannakakis plan over a valid join tree failed: %v\ngraph:\n%s", err, g)
		}
		its, err := expr.EnumerateITs(g, true)
		if err != nil || len(its) == 0 {
			t.Fatalf("EnumerateITs: %v (%d trees)\ngraph:\n%s", err, len(its), g)
		}
		ref, err := its[0].Eval(db)
		if err != nil {
			t.Fatalf("algebra eval: %v", err)
		}
		got, _, err := execute(o, p)
		if err != nil {
			t.Fatalf("yannakakis execute: %v\nplan:\n%s", err, p.Explain())
		}
		if !got.EqualBag(ref) {
			t.Fatalf("reduce-then-join bag differs from the reference algebra: want %d rows, got %d\ngraph:\n%s\nplan:\n%s",
				ref.Len(), got.Len(), g, p.Explain())
		}
	})
}
