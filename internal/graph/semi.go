package graph

import (
	"fmt"

	"freejoin/internal/predicate"
)

// Semijoin edges — the §6.3 outlook, implemented. The paper closes by
// conjecturing that join/semijoin queries admit a free-reorderability
// theorem with "fewer basic transforms" preserving the result, and that
// "semijoin edges in series appear to be an additional forbidden
// subgraph". This file adds the edge kind and the extended niceness test
// IsNiceSemi; the empirical validation that each condition is tight lives
// in package core's tests and in experiment E17.

// AddSemiEdge adds a directed semijoin edge u ~> v: u is the preserved
// (output) side and v the relation the semijoin consumes — after the
// operator, v's attributes are no longer visible. Parallel edges are
// rejected as for outerjoins.
func (g *Graph) AddSemiEdge(u, v string, p predicate.Predicate) error {
	return g.addDirected(u, v, SemiEdge, p)
}

// HasSemiEdges reports whether the graph contains semijoin edges (and is
// therefore outside Theorem 1's scope; use IsNiceSemi).
func (g *Graph) HasSemiEdges() bool {
	for _, e := range g.edges {
		if e.Kind == SemiEdge {
			return true
		}
	}
	return false
}

// WithoutSemiEdges returns a copy of the graph with semijoin edges (and
// the consumed nodes that become isolated) removed — the join/outerjoin
// skeleton the Theorem 1 conditions apply to.
func (g *Graph) WithoutSemiEdges() *Graph {
	// A consumed node stays only if a non-semi edge touches it.
	var touched, consumed NodeSet
	for _, e := range g.edges {
		if e.Kind != SemiEdge {
			touched = touched.With(e.ui).With(e.vi)
		}
	}
	for _, e := range g.edges {
		if e.Kind == SemiEdge && !touched.Has(e.vi) {
			consumed = consumed.With(e.vi)
		}
	}
	out := New()
	for i, n := range g.nodes {
		if !consumed.Has(i) {
			out.MustAddNode(n)
		}
	}
	for _, e := range g.edges {
		if e.Kind != SemiEdge {
			out.addEdge(out.nodeIdx[e.U], out.nodeIdx[e.V], e.Kind, e.Pred)
		}
	}
	return out
}

// IsNiceSemi extends the niceness test to graphs with semijoin edges (the
// §6.3 conjecture, made precise and machine-validated):
//
//  1. with semijoin edges removed, the remaining join/outerjoin graph is
//     nice (a consumed node that carried only its semijoin edge drops out
//     together with the edge);
//  2. the consumed node of every semijoin edge is pendant — its only edge
//     is that semijoin edge. This forbids "semijoin edges in series"
//     (U ~> V ~> W) and semijoins whose consumed relation also joins
//     elsewhere: either way some implementing tree would need the
//     consumed relation's attributes after they are gone;
//  3. the source of a semijoin edge is not null-supplied by an outerjoin:
//     X → Y with Y ~> Z admits the differing trees (X → Y) ⋉ Z and
//     X → (Y ⋉ Z) — padding survives the second but not the first.
//
// When the graph has no semijoin edges this coincides with IsNice.
func (g *Graph) IsNiceSemi() (bool, string) {
	var nulled NodeSet
	for _, e := range g.edges {
		if e.Kind == OuterEdge {
			nulled = nulled.With(e.vi)
		}
	}
	for _, e := range g.edges {
		if e.Kind != SemiEdge {
			continue
		}
		if g.adj[e.vi].Count() != 1 { // no parallel edges: neighbours count edges
			return false, fmt.Sprintf("semijoin-consumed node %s has other edges (series or shared consumption)", e.V)
		}
		if nulled.Has(e.ui) {
			return false, fmt.Sprintf("semijoin source %s is null-supplied by an outerjoin", e.U)
		}
	}
	if !g.Connected() {
		return false, "graph is not connected"
	}
	skeleton := g.WithoutSemiEdges()
	if skeleton.NumNodes() == 0 {
		// Degenerate: a graph that is nothing but one semijoin pair.
		return true, ""
	}
	return skeleton.IsNiceLemma1()
}
