// Package graph implements the paper's query graphs for Join/Outerjoin
// queries: nodes are ground relations; each join-predicate conjunct
// contributes an undirected edge (parallel join edges between the same
// pair are collapsed into one, conjoining their predicates); each
// outerjoin contributes a single directed edge toward the null-supplied
// relation, labeled with the entire outerjoin predicate.
//
// The package provides the two equivalent "nice graph" tests — the
// definitional one (a connected join core from which outerjoin trees go
// outward) and Lemma 1's forbidden-pattern form — plus the connectivity
// and cut machinery that package expr uses to enumerate implementing
// trees.
package graph

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"freejoin/internal/predicate"
)

// EdgeKind distinguishes join and outerjoin edges.
type EdgeKind uint8

// Edge kinds. SemiEdge is the §6.3 extension (see semi.go); Theorem 1
// itself covers JoinEdge and OuterEdge only.
const (
	JoinEdge EdgeKind = iota
	OuterEdge
	SemiEdge
)

// String returns the edge-kind name.
func (k EdgeKind) String() string {
	switch k {
	case OuterEdge:
		return "outerjoin"
	case SemiEdge:
		return "semijoin"
	default:
		return "join"
	}
}

// arrow returns the textual edge connector.
func (k EdgeKind) arrow() string {
	switch k {
	case OuterEdge:
		return "->"
	case SemiEdge:
		return "~>"
	default:
		return "-"
	}
}

// Edge is a labeled query-graph edge between two ground relations. For an
// OuterEdge the direction is U → V: U's side is preserved, V is
// null-supplied. For a JoinEdge the (U, V) order is arbitrary.
type Edge struct {
	U, V string
	Kind EdgeKind
	Pred predicate.Predicate

	ui, vi int // node indices of U and V in the graph that holds the edge
}

// Ends returns the node indices (NodeSet bit positions) of U and V in
// the graph the edge was read from.
func (e Edge) Ends() (u, v int) { return e.ui, e.vi }

// Other returns the endpoint opposite to n.
func (e Edge) Other(n string) string {
	if e.U == n {
		return e.V
	}
	return e.U
}

// Touches reports whether n is an endpoint of the edge.
func (e Edge) Touches(n string) bool { return e.U == n || e.V == n }

// String renders the edge as "U - V", "U -> V" or "U ~> V" with its
// predicate.
func (e Edge) String() string {
	return fmt.Sprintf("%s %s %s [%s]", e.U, e.Kind.arrow(), e.V, e.Pred)
}

// Graph is a query graph. The zero value is empty and ready to use.
// Graphs support at most 64 nodes (node sets are bitmasks), far beyond
// the size at which exhaustive implementing-tree enumeration is feasible.
type Graph struct {
	nodes   []string
	nodeIdx map[string]int
	edges   []Edge
	adj     []NodeSet // per node, the nodes it shares an edge with
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodeIdx: make(map[string]int)}
}

// AddNode adds a ground relation node; adding an existing node is a no-op.
func (g *Graph) AddNode(name string) error {
	if _, ok := g.nodeIdx[name]; ok {
		return nil
	}
	if len(g.nodes) >= 64 {
		return fmt.Errorf("graph: more than 64 nodes")
	}
	g.nodeIdx[name] = len(g.nodes)
	g.nodes = append(g.nodes, name)
	g.adj = append(g.adj, 0)
	return nil
}

// MustAddNode is AddNode that panics on error.
func (g *Graph) MustAddNode(name string) {
	if err := g.AddNode(name); err != nil {
		panic(err)
	}
}

// HasNode reports whether the node exists.
func (g *Graph) HasNode(name string) bool {
	_, ok := g.nodeIdx[name]
	return ok
}

// Nodes returns a copy of the node names in insertion order.
func (g *Graph) Nodes() []string { return append([]string(nil), g.nodes...) }

// Node returns the name of the node with bit index i.
func (g *Graph) Node(i int) string { return g.nodes[i] }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Edges returns the edges (shared slice; callers must not modify).
func (g *Graph) Edges() []Edge { return g.edges }

// IndexOf returns the bit index of a node in NodeSets, or -1 if the node
// is unknown.
func (g *Graph) IndexOf(name string) int {
	if i, ok := g.nodeIdx[name]; ok {
		return i
	}
	return -1
}

// endpoints adds u and v as needed and returns their indices together
// with the index in g.edges of the edge already joining them in either
// orientation, or -1.
func (g *Graph) endpoints(u, v string) (ui, vi, at int, err error) {
	if u == v {
		return 0, 0, -1, fmt.Errorf("graph: self-loop on %s", u)
	}
	if err := g.AddNode(u); err != nil {
		return 0, 0, -1, err
	}
	if err := g.AddNode(v); err != nil {
		return 0, 0, -1, err
	}
	ui, vi, at = g.nodeIdx[u], g.nodeIdx[v], -1
	if g.adj[ui].Has(vi) {
		for i, e := range g.edges {
			if (e.ui == ui && e.vi == vi) || (e.ui == vi && e.vi == ui) {
				at = i
				break
			}
		}
	}
	return ui, vi, at, nil
}

// addEdge appends an edge between existing nodes ui and vi.
func (g *Graph) addEdge(ui, vi int, kind EdgeKind, p predicate.Predicate) {
	g.edges = append(g.edges, Edge{U: g.nodes[ui], V: g.nodes[vi], Kind: kind, Pred: p, ui: ui, vi: vi})
	g.adj[ui] = g.adj[ui].With(vi)
	g.adj[vi] = g.adj[vi].With(ui)
}

// AddJoinEdge adds an undirected join edge labeled p between u and v.
// A parallel join edge is collapsed by conjoining predicates (the paper's
// treatment of multiple conjuncts between the same relations). A parallel
// edge of a different kind is rejected: the paper's operator convention
// (every conjunct references both operands of its operator) makes such a
// query ill-formed, so the graph would be undefined.
func (g *Graph) AddJoinEdge(u, v string, p predicate.Predicate) error {
	ui, vi, at, err := g.endpoints(u, v)
	if err != nil {
		return err
	}
	if at >= 0 {
		if g.edges[at].Kind != JoinEdge {
			return fmt.Errorf("graph: join edge %s-%s parallel to outerjoin edge: graph undefined", u, v)
		}
		g.edges[at].Pred = predicate.NewAnd(g.edges[at].Pred, p)
		return nil
	}
	g.addEdge(ui, vi, JoinEdge, p)
	return nil
}

// addDirected adds a directed edge u → v of the given kind; any parallel
// edge is rejected (see AddJoinEdge).
func (g *Graph) addDirected(u, v string, kind EdgeKind, p predicate.Predicate) error {
	ui, vi, at, err := g.endpoints(u, v)
	if err != nil {
		return err
	}
	if at >= 0 {
		article := "a"
		if kind == OuterEdge {
			article = "an"
		}
		return fmt.Errorf("graph: parallel edge %s,%s involving %s %s: graph undefined", u, v, article, kind)
	}
	g.addEdge(ui, vi, kind, p)
	return nil
}

// AddOuterEdge adds a directed outerjoin edge u → v (v null-supplied)
// labeled with the entire outerjoin predicate p. Any parallel edge is
// rejected (see AddJoinEdge); a second outerjoin between the same pair
// cannot arise because a relation is used at most once per query.
func (g *Graph) AddOuterEdge(u, v string, p predicate.Predicate) error {
	return g.addDirected(u, v, OuterEdge, p)
}

// NodeSet is a bitmask over a graph's node indices.
type NodeSet uint64

// Set reports membership of bit i.
func (s NodeSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// With returns s with bit i set.
func (s NodeSet) With(i int) NodeSet { return s | 1<<uint(i) }

// Count returns the population count.
func (s NodeSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Lowest returns the index of the lowest set bit (64 for the empty set).
func (s NodeSet) Lowest() int { return bits.TrailingZeros64(uint64(s)) }

// AllNodes returns the set of all nodes.
func (g *Graph) AllNodes() NodeSet {
	if len(g.nodes) == 0 {
		return 0
	}
	return NodeSet(1)<<uint(len(g.nodes)) - 1
}

// SetOf builds a NodeSet from node names. Unknown names — which can
// reach here from user-supplied queries naming tables the catalog does
// not have — are reported as an error rather than a panic.
func (g *Graph) SetOf(names ...string) (NodeSet, error) {
	var s NodeSet
	for _, n := range names {
		i := g.IndexOf(n)
		if i < 0 {
			return 0, fmt.Errorf("graph: unknown node %q", n)
		}
		s = s.With(i)
	}
	return s, nil
}

// NamesOf lists the node names in a set, in index order.
func (g *Graph) NamesOf(s NodeSet) []string {
	var out []string
	for i, n := range g.nodes {
		if s.Has(i) {
			out = append(out, n)
		}
	}
	return out
}

// ConnectedSet reports whether the induced subgraph on s is connected
// (true for the empty set and singletons).
func (g *Graph) ConnectedSet(s NodeSet) bool { return flood(g.adj, s) }

// flood reports whether s is connected under the adjacency sets adj:
// it grows the lowest node of s by neighbours inside s until nothing
// is added.
func flood(adj []NodeSet, s NodeSet) bool {
	seen := s & -s
	for frontier := seen; frontier != 0; {
		i := frontier.Lowest()
		frontier &^= 1 << uint(i)
		next := adj[i] & s &^ seen
		seen |= next
		frontier |= next
	}
	return seen == s
}

// Neighbours returns the nodes outside s that share an edge with a node
// of s.
func (g *Graph) Neighbours(s NodeSet) NodeSet {
	var n NodeSet
	for t := s; t != 0; t &= t - 1 {
		n |= g.adj[t.Lowest()]
	}
	return n &^ s
}

// Connected reports whether the whole graph is connected. Query graphs
// built from a single query are connected by construction; generated
// graphs may not be.
func (g *Graph) Connected() bool { return g.ConnectedSet(g.AllNodes()) }

// CutEdges returns the edges with one endpoint in s1 and the other in s2.
func (g *Graph) CutEdges(s1, s2 NodeSet) []Edge {
	var out []Edge
	for _, e := range g.edges {
		if (s1.Has(e.ui) && s2.Has(e.vi)) || (s1.Has(e.vi) && s2.Has(e.ui)) {
			out = append(out, e)
		}
	}
	return out
}

// EdgesWithin returns the edges with both endpoints in s.
func (g *Graph) EdgesWithin(s NodeSet) []Edge {
	var out []Edge
	for _, e := range g.edges {
		if s.Has(e.ui) && s.Has(e.vi) {
			out = append(out, e)
		}
	}
	return out
}

// InducedSubgraph returns the subgraph on the node set s.
func (g *Graph) InducedSubgraph(s NodeSet) *Graph {
	sub := New()
	for i, n := range g.nodes {
		if s.Has(i) {
			sub.MustAddNode(n)
		}
	}
	for _, e := range g.EdgesWithin(s) {
		sub.addEdge(sub.nodeIdx[e.U], sub.nodeIdx[e.V], e.Kind, e.Pred)
	}
	return sub
}

// Equal reports whether two graphs have the same node set and the same
// edges (kind, orientation for outerjoins, and predicate identity by
// rendered string — predicates are built structurally, so equal strings
// imply equal predicates in practice).
func (g *Graph) Equal(h *Graph) bool {
	if len(g.nodes) != len(h.nodes) || len(g.edges) != len(h.edges) {
		return false
	}
	for _, n := range g.nodes {
		if !h.HasNode(n) {
			return false
		}
	}
	gs := g.edgeStrings()
	hs := h.edgeStrings()
	for i := range gs {
		if gs[i] != hs[i] {
			return false
		}
	}
	return true
}

func (g *Graph) edgeStrings() []string {
	out := make([]string, 0, len(g.edges))
	for _, e := range g.edges {
		u, v := e.U, e.V
		if e.Kind == JoinEdge && u > v {
			u, v = v, u // canonical orientation for undirected edges
		}
		out = append(out, fmt.Sprintf("%s %s %s [%s]", u, e.Kind.arrow(), v, e.Pred))
	}
	sort.Strings(out)
	return out
}

// String renders the graph as one edge per line plus isolated nodes.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph with %d nodes, %d edges\n", len(g.nodes), len(g.edges))
	for _, s := range g.edgeStrings() {
		b.WriteString("  ")
		b.WriteString(s)
		b.WriteByte('\n')
	}
	for i, n := range g.nodes {
		if g.adj[i] == 0 {
			fmt.Fprintf(&b, "  %s (isolated)\n", n)
		}
	}
	return b.String()
}

// DOT renders the graph in Graphviz dot syntax (outerjoin edges are
// directed, join edges undirected via dir=none).
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph query {\n")
	for _, n := range g.nodes {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	for _, e := range g.edges {
		switch e.Kind {
		case OuterEdge:
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.U, e.V, e.Pred.String())
		case SemiEdge:
			fmt.Fprintf(&b, "  %q -> %q [style=dashed, label=%q];\n", e.U, e.V, e.Pred.String())
		default:
			fmt.Fprintf(&b, "  %q -> %q [dir=none, label=%q];\n", e.U, e.V, e.Pred.String())
		}
	}
	b.WriteString("}\n")
	return b.String()
}
