// Package plancache implements the plan cache: canonical fingerprints
// of query graphs, statement keys of query texts, and one LRU +
// singleflight cache keyed by both with stats-epoch invalidation.
//
// The paper's Theorem 1 is what makes the design sound: every
// implementing tree of a nice query graph with strong predicates
// evaluates to the same result, so the *graph* — not the parse tree the
// user happened to type — is the correct cache key. Two syntactically
// different queries whose graphs coincide may share one optimized plan.
// The fingerprint is therefore computed over a canonical rendering of
// the graph that is invariant under relation order, edge order, join-
// edge orientation, and conjunct order within a predicate.
//
// A statement key sits in front of the fingerprint: a query text
// already planned under the same configuration and stats epoch maps
// straight to its plan, so a repeated statement skips the parser, the
// analysis and the fingerprint. It is a shortcut, not a second notion
// of plan identity — the plan it holds is the one the graph key chose.
package plancache

import (
	"fmt"
	"sort"
	"strings"

	"freejoin/internal/graph"
	"freejoin/internal/hashutil"
	"freejoin/internal/predicate"
)

// Fingerprint identifies a query graph (plus caller-supplied planning
// context) canonically. Hash is a 64-bit FNV-1a digest of Canon, used
// for compact display in traces; Canon is the full canonical text and
// is what the cache actually keys on, so hash collisions can never
// alias two distinct queries.
type Fingerprint struct {
	Hash  uint64
	Canon string
}

// String renders the compact hex form used in traces and EXPLAIN.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x", f.Hash) }

// Of fingerprints a query graph. The canonical text lists the sorted
// node names, then the edges sorted as lines — join edges with their
// endpoints ordered lexically (they are undirected), outerjoin and
// semijoin edges keeping their direction (it is semantics: the arrow
// points at the null-supplied side) — each labeled with its predicate's
// conjuncts rendered in sorted order. Any extras (canonicalized by the
// caller: residual filters, optimizer configuration) are appended as
// trailing lines. Permuting relations, edges, or conjuncts in the
// source query therefore cannot change the fingerprint.
func Of(g *graph.Graph, extras ...string) Fingerprint {
	var b strings.Builder

	nodes := g.Nodes()
	sort.Strings(nodes)
	b.WriteString("nodes:")
	for _, n := range nodes {
		b.WriteByte(' ')
		b.WriteString(n)
	}
	b.WriteByte('\n')

	lines := make([]string, 0, len(g.Edges()))
	for _, e := range g.Edges() {
		u, v := e.U, e.V
		arrow := "-"
		switch e.Kind {
		case graph.OuterEdge:
			arrow = "->"
		case graph.SemiEdge:
			arrow = "~>"
		default:
			if u > v {
				u, v = v, u
			}
		}
		lines = append(lines, u+" "+arrow+" "+v+" ["+CanonPred(e.Pred)+"]")
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}

	for _, x := range extras {
		b.WriteString(x)
		b.WriteByte('\n')
	}

	canon := b.String()
	h := hashutil.New64()
	h.WriteString(canon)
	return Fingerprint{Hash: h.Sum64(), Canon: canon}
}

// statementPrefix starts every statement key. A fingerprint's canonical
// text starts with "nodes:", so the two kinds of key never meet in the
// one LRU.
const statementPrefix = "stmt:\n"

// StatementKey keys a query text planned under a planner configuration
// (the "config:" lines a fingerprint carries as extras): the prefix, the
// configuration one line each, a NUL, then the text. No configuration
// line holds a NUL, so no text can pose as a configuration.
func StatementKey(text string, config ...string) string {
	n := len(statementPrefix) + 1 + len(text)
	for _, c := range config {
		n += len(c) + 1
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(statementPrefix)
	for _, c := range config {
		b.WriteString(c)
		b.WriteByte('\n')
	}
	b.WriteByte(0)
	b.WriteString(text)
	return b.String()
}

// CanonPred renders a predicate with its top-level conjuncts sorted, so
// "R.a = S.a and R.b = S.b" and its reordering fingerprint identically
// (parallel join edges collapse by conjoining in encounter order, which
// the fingerprint must not observe). The optimizer uses it to
// canonicalize pushed-down leaf filters before folding them into the
// fingerprint's extras.
func CanonPred(p predicate.Predicate) string {
	if p == nil {
		return ""
	}
	conj := predicate.Conjuncts(p)
	if len(conj) <= 1 {
		return p.String()
	}
	parts := make([]string, len(conj))
	for i, c := range conj {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " and ")
}
