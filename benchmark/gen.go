package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// The benchmark generates its own tables and query graphs instead of
// borrowing internal/workload's: those draw the row count of every
// relation at random, so the work per request would change with the
// seed. Here a seed changes values, column choices, tree shapes and the
// written implementing tree, never a table size, a relation count or a
// result cardinality class.

// table is one generated base relation with int columns a and b.
type table struct {
	name string
	rows [][2]int64
}

// literal renders the ojserver "table" command that defines t.
func (t table) literal() string {
	var b strings.Builder
	b.Grow(len(t.rows)*16 + 32)
	b.WriteString("table ")
	b.WriteString(t.name)
	b.WriteString("(a, b) = ")
	var num [20]byte
	for i, r := range t.rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		b.Write(strconv.AppendInt(num[:0], r[0], 10))
		b.WriteString(", ")
		b.Write(strconv.AppendInt(num[:0], r[1], 10))
		b.WriteByte(')')
	}
	return b.String()
}

// keyedTable has n rows whose columns are two independent seeded
// permutations: a = aStep*[0,n) and b = bStep*[0,n). Both are keys, so
// every equijoin between such columns matches at most one row per row
// and its result size is fixed by the steps, not by the seed; the
// optimizer's distinct counts are exact for the same reason, so its plan
// does not flip between seeds on a near-tie.
func keyedTable(rnd *rand.Rand, name string, n int, aStep, bStep int64) table {
	t := table{name: name, rows: make([][2]int64, n)}
	bs := rnd.Perm(n)
	for i, p := range rnd.Perm(n) {
		t.rows[i] = [2]int64{int64(p) * aStep, int64(bs[i]) * bStep}
	}
	return t
}

// danglingTables builds one n-row table per relation for the case a
// semijoin reducer exists for. A tenth of each table is a backbone of
// keys every relation holds once, so the full join is 1:1 and has n/10
// rows. Each join edge (a pair of indexes into rels) also has a hot key
// that both of its ends hold hot times and no other relation holds:
// whichever join runs first pairs hot*hot rows that the next join
// discards, and no single join can see that. The rest of each table is
// keys private to it. Column a carries all of this; b is noise.
func danglingTables(rnd *rand.Rand, rels []string, joinEdges [][2]int, n, hot int) []table {
	keys := make([][]int64, len(rels))
	for i := range keys {
		for j := 0; j < n/10; j++ {
			keys[i] = append(keys[i], int64(j)*10)
		}
	}
	for k, e := range joinEdges {
		for j := 0; j < hot; j++ {
			keys[e[0]] = append(keys[e[0]], int64(100*n+k))
			keys[e[1]] = append(keys[e[1]], int64(100*n+k))
		}
	}
	ts := make([]table, len(rels))
	for i, ks := range keys {
		for private := int64(i+1) * 1000 * int64(n); len(ks) < n; private++ {
			ks = append(ks, private)
		}
		rnd.Shuffle(n, func(x, y int) { ks[x], ks[y] = ks[y], ks[x] })
		ts[i] = table{name: rels[i], rows: make([][2]int64, n)}
		for j, k := range ks {
			ts[i].rows[j] = [2]int64{k, rnd.Int63n(int64(n))}
		}
	}
	return ts
}

// qedge is one edge of a tree-shaped query graph over rels[u], rels[v].
// An outer edge preserves u and null-supplies v.
type qedge struct {
	u, v       int
	outer      bool
	ucol, vcol string
}

// qgraph is a nice, acyclic query graph: a join tree over the first
// core relations, every later relation hanging off an earlier one by an
// outward outerjoin edge. Every implementing tree of such a graph is
// one recursive choice of which edge to cut, so the benchmark can write
// the same query in any association.
type qgraph struct {
	rels  []string
	edges []qedge
}

func (e qedge) pred(g *qgraph) string {
	return fmt.Sprintf("%s.%s = %s.%s", g.rels[e.u], e.ucol, g.rels[e.v], e.vcol)
}

// key identifies the graph independent of how it is written; two
// queries with one key share a plan-cache fingerprint.
func (g *qgraph) key() string {
	parts := make([]string, len(g.edges))
	for i, e := range g.edges {
		a, b := g.rels[e.u]+"."+e.ucol, g.rels[e.v]+"."+e.vcol
		switch {
		case e.outer:
			parts[i] = a + ">" + b
		case a < b:
			parts[i] = a + "-" + b
		default:
			parts[i] = b + "-" + a
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

type shape int

const (
	shapeChain shape = iota // every node hangs off the previous one
	shapeStar               // every node hangs off the first
	shapeTree               // every node hangs off a random earlier one
)

// treeGraph builds a graph of the given shape over rels: the first core
// relations form the join tree, the rest attach by outerjoin edges.
// Columns are drawn per edge end.
func treeGraph(rnd *rand.Rand, rels []string, core int, sh shape) *qgraph {
	cols := []string{"a", "b"}
	g := &qgraph{rels: rels}
	for i := 1; i < len(rels); i++ {
		parent := 0
		switch sh {
		case shapeChain:
			parent = i - 1
		case shapeTree:
			parent = rnd.Intn(i)
		}
		g.edges = append(g.edges, qedge{
			u: parent, v: i, outer: i >= core,
			ucol: cols[rnd.Intn(2)], vcol: cols[rnd.Intn(2)],
		})
	}
	return g
}

// render writes a random implementing tree of g in the ojserver
// expression syntax: cut a random edge, render both sides, join them
// with the edge's operator (an outerjoin keeps its direction whichever
// side is written first).
func (g *qgraph) render(rnd *rand.Rand) string {
	all := make([]int, len(g.edges))
	for i := range all {
		all[i] = i
	}
	return g.renderPart(rnd, 0, all, true)
}

// renderPart renders the connected part of g that contains node and
// spans exactly the edges in part.
func (g *qgraph) renderPart(rnd *rand.Rand, node int, part []int, top bool) string {
	if len(part) == 0 {
		return g.rels[node]
	}
	cut := g.edges[part[rnd.Intn(len(part))]]
	// Split the remaining edges by the side of the cut they fall on:
	// flood from cut.u without crossing the cut edge.
	side := map[int]bool{cut.u: true}
	for grew := true; grew; {
		grew = false
		for _, ei := range part {
			e := g.edges[ei]
			if e == cut || side[e.u] == side[e.v] {
				continue
			}
			side[e.u], side[e.v] = true, true
			grew = true
		}
	}
	var uPart, vPart []int
	for _, ei := range part {
		e := g.edges[ei]
		switch {
		case e == cut:
		case side[e.u]:
			uPart = append(uPart, ei)
		default:
			vPart = append(vPart, ei)
		}
	}
	us := g.renderPart(rnd, cut.u, uPart, false)
	vs := g.renderPart(rnd, cut.v, vPart, false)
	op, l, r := "-", us, vs
	swap := rnd.Intn(2) == 0
	switch {
	case cut.outer && swap:
		op, l, r = "<-", vs, us
	case cut.outer:
		op = "->"
	case swap:
		l, r = vs, us
	}
	s := fmt.Sprintf("%s %s[%s] %s", l, op, cut.pred(g), r)
	if top {
		return s
	}
	return "(" + s + ")"
}
