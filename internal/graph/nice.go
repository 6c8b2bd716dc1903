package graph

import "fmt"

// Niceness analyses. The paper gives two characterizations proved
// equivalent by its Lemma 1; we implement both and property-test their
// agreement (DESIGN.md experiment E9).

// IsNiceLemma1 checks the Lemma 1 form on a connected graph:
//
//  1. there are no cycles composed of outerjoin edges,
//  2. there is no path of the form X → Y — Z (a null-supplied node
//     incident to a join edge), and
//  3. there is no path of the form X → Y ← Z (a node null-supplied by two
//     outerjoins).
//
// It reports ok=false with a human-readable reason naming the violated
// condition. A disconnected graph is not a query graph and is rejected.
func (g *Graph) IsNiceLemma1() (ok bool, reason string) {
	if g.HasSemiEdges() {
		return false, "semijoin edges are outside Theorem 1 (use IsNiceSemi)"
	}
	if !g.Connected() {
		return false, "graph is not connected"
	}
	// Condition 3: at most one incoming outerjoin edge per node, and
	// condition 2: no node with an incoming outerjoin edge touches a join
	// edge.
	var nulled, twice, joined NodeSet
	for _, e := range g.edges {
		switch e.Kind {
		case OuterEdge:
			twice |= nulled & (1 << uint(e.vi))
			nulled = nulled.With(e.vi)
		case JoinEdge:
			joined = joined.With(e.ui).With(e.vi)
		}
	}
	for i, n := range g.nodes {
		if twice.Has(i) {
			return false, fmt.Sprintf("node %s is null-supplied by two outerjoins (X -> Y <- Z)", n)
		}
		if nulled.Has(i) && joined.Has(i) {
			return false, fmt.Sprintf("null-supplied node %s is incident to a join edge (X -> Y - Z)", n)
		}
	}
	// Condition 1: the outerjoin edges, with direction ignored, are
	// acyclic (a forest).
	if g.outerEdgesHaveCycle() {
		return false, "outerjoin edges form a cycle"
	}
	return true, ""
}

// outerEdgesHaveCycle reports whether the undirected graph formed by the
// outerjoin edges alone contains a cycle (union-find over endpoints).
func (g *Graph) outerEdgesHaveCycle() bool {
	parent := make([]int, len(g.nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.edges {
		if e.Kind != OuterEdge {
			continue
		}
		ru, rv := find(e.ui), find(e.vi)
		if ru == rv {
			return true
		}
		parent[ru] = rv
	}
	return false
}

// IsNiceDefinitional checks the definitional form on a connected graph:
// G = G1 ∪ G2 where G1 is connected and has only join edges, G2 is a
// forest of outerjoin edges directed outward (away from the roots), and
// G1 ∩ G2 is exactly the set of forest roots.
func (g *Graph) IsNiceDefinitional() (ok bool, reason string) {
	if g.HasSemiEdges() {
		return false, "semijoin edges are outside Theorem 1 (use IsNiceSemi)"
	}
	if !g.Connected() {
		return false, "graph is not connected"
	}
	// G1's node set: nodes incident to join edges. If there are no join
	// edges, G1 is a single node — the unique root of the outerjoin
	// forest (which must then be a single tree).
	var core NodeSet
	incoming := make([]int, len(g.nodes)) // outerjoin edges into each node
	for _, e := range g.edges {
		if e.Kind == JoinEdge {
			core = core.With(e.ui).With(e.vi)
		} else {
			incoming[e.vi]++
		}
	}
	// G1 must be connected using join edges only.
	if core != 0 && !g.joinConnected(core) {
		return false, "join edges do not form a connected core"
	}
	// G2: the outerjoin edges must form a forest...
	if g.outerEdgesHaveCycle() {
		return false, "outerjoin edges form a cycle"
	}
	// ... directed outward: a node with an incoming outer edge must have
	// exactly one (forest + orientation) and must not belong to G1, and
	// G1 ∩ G2 must be exactly the forest roots.
	var roots NodeSet
	for _, e := range g.edges {
		if e.Kind != OuterEdge {
			continue
		}
		if incoming[e.vi] > 1 {
			return false, fmt.Sprintf("outerjoin edges into %s do not form an outward tree", e.V)
		}
		if core.Has(e.vi) {
			return false, fmt.Sprintf("non-root forest node %s lies in the join core", e.V)
		}
		if incoming[e.ui] == 0 {
			// e.U is a forest root: it must lie in G1. With join edges
			// present that means it touches a join edge; without any, G1
			// is a single node, so all roots must coincide.
			if core != 0 && !core.Has(e.ui) {
				return false, fmt.Sprintf("outerjoin tree root %s is not in the join core", e.U)
			}
			roots = roots.With(e.ui)
		}
	}
	if core == 0 && roots.Count() > 1 {
		return false, "outerjoin forest without a join core must be a single tree"
	}
	return true, ""
}

// joinConnected reports whether the node set s is connected using join
// edges only.
func (g *Graph) joinConnected(s NodeSet) bool {
	adj := make([]NodeSet, len(g.nodes))
	for _, e := range g.edges {
		if e.Kind == JoinEdge {
			adj[e.ui] = adj[e.ui].With(e.vi)
			adj[e.vi] = adj[e.vi].With(e.ui)
		}
	}
	return flood(adj, s)
}

// IsNice reports whether the graph is "nice" (the precondition of the
// free-reorderability theorem, with strongness checked separately). It
// uses the Lemma 1 form; IsNiceDefinitional is the cross-check.
func (g *Graph) IsNice() (bool, string) { return g.IsNiceLemma1() }
