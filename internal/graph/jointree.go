package graph

import (
	"fmt"

	"freejoin/internal/predicate"
)

// JoinTree is a rooted arrangement of a tree-shaped query graph: the
// skeleton of the Yannakakis acyclic fast path. The root is chosen so
// that every outer edge points parent → child (preserved side above the
// null-supplied side), which is what makes the semijoin reducer below
// sound for outerjoins: a preserved tuple dangling with respect to a
// null-supplied child must survive reduction, so the bottom-up pass may
// only shrink a parent across plain join edges.
type JoinTree struct {
	g        *Graph
	root     string
	parent   map[string]string // node → parent; absent for the root
	edge     map[string]Edge   // node → the edge connecting it to its parent
	children map[string][]string
	order    []string // BFS pre-order from the root
}

// ReducerStep is one semijoin of the full-reducer program:
// Target ⋉= Source on Pred. TopDown distinguishes the second pass
// (child reduced by its already-reduced parent) from the first
// (parent reduced by an already-reduced child).
type ReducerStep struct {
	Target  string
	Source  string
	Pred    predicate.Predicate
	TopDown bool
}

// String renders the step as "Target ⋉ Source (pass)".
func (s ReducerStep) String() string {
	pass := "up"
	if s.TopDown {
		pass = "down"
	}
	return fmt.Sprintf("%s ⋉ %s (%s)", s.Target, s.Source, pass)
}

// BuildJoinTree roots a tree-shaped query graph for the Yannakakis fast
// path. It errors when the graph is not applicable: empty, carrying
// semijoin edges, disconnected, cyclic (more than n-1 edges), or shaped
// so that no root orients every outer edge parent → child.
func BuildJoinTree(g *Graph) (*JoinTree, error) {
	switch {
	case g == nil || g.NumNodes() == 0:
		return nil, fmt.Errorf("graph: join tree over empty graph")
	case g.HasSemiEdges():
		return nil, fmt.Errorf("graph: join tree over semijoin edges")
	case len(g.Edges()) != g.NumNodes()-1:
		return nil, fmt.Errorf("graph: join tree needs a tree (%d nodes, %d edges)",
			g.NumNodes(), len(g.Edges()))
	case !g.Connected():
		return nil, fmt.Errorf("graph: join tree over disconnected graph")
	}

	// Root at the first node (insertion order, for determinism) that is
	// not null-supplied by any outer edge. In a nice graph these are
	// exactly the core nodes, and rooting at any of them orients every
	// outer edge outward; one always exists in a tree, because n-1 edges
	// cannot point at all n nodes.
	var consumed NodeSet
	for _, e := range g.edges {
		if e.Kind == OuterEdge {
			consumed = consumed.With(e.vi)
		}
	}
	if consumed == g.AllNodes() {
		return nil, fmt.Errorf("graph: every node is null-supplied; no join-tree root")
	}
	root := g.nodes[(g.AllNodes() &^ consumed).Lowest()]

	jt := &JoinTree{
		g:        g,
		root:     root,
		parent:   make(map[string]string, g.NumNodes()),
		edge:     make(map[string]Edge, g.NumNodes()),
		children: make(map[string][]string, g.NumNodes()),
	}
	jt.order = append(jt.order, root)
	seen := map[string]bool{root: true}
	for at := 0; at < len(jt.order); at++ {
		n := jt.order[at]
		for _, e := range g.Edges() {
			if !e.Touches(n) {
				continue
			}
			c := e.Other(n)
			if seen[c] {
				continue
			}
			seen[c] = true
			jt.parent[c] = n
			jt.edge[c] = e
			jt.children[n] = append(jt.children[n], c)
			jt.order = append(jt.order, c)
		}
	}
	// Defensive: the tree-and-connected checks above make full coverage
	// a given, but a partial BFS would corrupt the reducer silently.
	if len(jt.order) != g.NumNodes() {
		return nil, fmt.Errorf("graph: join tree covered %d of %d nodes", len(jt.order), g.NumNodes())
	}
	// Every outer edge must now point parent → child: the preserved side
	// (U) above the null-supplied side (V). A tree that cannot be rooted
	// this way (e.g. two outer edges meeting head-on) is not a nice
	// graph, and reducing across a misoriented outer edge would delete
	// preserved tuples whose null-padded rows belong in the output.
	for c, e := range jt.edge {
		if e.Kind == OuterEdge && e.V != c {
			return nil, fmt.Errorf("graph: outer edge %s misoriented in join tree rooted at %s", e, root)
		}
	}
	return jt, nil
}

// Root returns the root node.
func (jt *JoinTree) Root() string { return jt.root }

// Order returns the BFS pre-order from the root (parents before
// children).
func (jt *JoinTree) Order() []string { return append([]string(nil), jt.order...) }

// PostOrder returns the reverse of Order: every child before its
// parent.
func (jt *JoinTree) PostOrder() []string {
	out := make([]string, len(jt.order))
	for i, n := range jt.order {
		out[len(out)-1-i] = n
	}
	return out
}

// Children returns n's children in discovery order.
func (jt *JoinTree) Children(n string) []string {
	return append([]string(nil), jt.children[n]...)
}

// Parent returns n's parent and the connecting edge; ok is false for
// the root.
func (jt *JoinTree) Parent(n string) (parent string, e Edge, ok bool) {
	p, ok := jt.parent[n]
	if !ok {
		return "", Edge{}, false
	}
	return p, jt.edge[n], true
}

// ReducerProgram returns the full-reducer semijoin program in execution
// order: a bottom-up pass (each parent reduced by its already-reduced
// children, join edges only) followed by a top-down pass (each child
// reduced by its already-reduced parent, every edge kind).
//
// Why the asymmetry: across an outer edge U → V the U side is
// preserved, so a U-tuple with no V-match still produces a null-padded
// output row — reducing U by V would delete it (unsound). Reducing V by
// U is always sound: a V-tuple appears in the output only alongside a
// matching U-tuple. Plain join edges are sound in both directions.
// After the program runs, every surviving tuple contributes to at least
// one output row, which is the Yannakakis guarantee that intermediate
// join results never exceed the final result.
func (jt *JoinTree) ReducerProgram() []ReducerStep {
	var steps []ReducerStep
	for _, n := range jt.PostOrder() {
		p, e, ok := jt.Parent(n)
		if !ok || e.Kind != JoinEdge {
			continue
		}
		steps = append(steps, ReducerStep{Target: p, Source: n, Pred: e.Pred})
	}
	for _, n := range jt.Order() {
		p, e, ok := jt.Parent(n)
		if !ok {
			continue
		}
		steps = append(steps, ReducerStep{Target: n, Source: p, Pred: e.Pred, TopDown: true})
	}
	return steps
}
