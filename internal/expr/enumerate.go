package expr

import (
	"fmt"
	"math/bits"
	"sort"

	"freejoin/internal/graph"
	"freejoin/internal/predicate"
)

// Implementing-tree enumeration. An IT of a graph G corresponds to a
// recursive partition of G's nodes into connected halves, where each
// split's cut edges form a single operator: a set of join edges collapses
// into one join whose predicate is their conjunction, and a single
// outerjoin edge (with no join edges beside it) becomes an outerjoin
// directed along the edge. Splits whose cut mixes kinds or contains more
// than one outerjoin edge are not expressible as one operator, so they
// yield no ITs — exactly the "connectivity-preserving parenthesizations"
// of §1.3.

// EnumerateITs returns every implementing tree of g. With moduloReversal
// true, only one representative per reversal class is produced: joins put
// the side holding g's lowest-index node on the left, and outerjoins put
// the preserved side on the left. With moduloReversal false both
// orientations of every operator are produced, so the count multiplies by
// 2^(operators).
//
// The graph must be connected and non-empty. Enumeration is exponential;
// it is intended for graphs of at most ~10 nodes (use CountITs to size a
// graph first).
func EnumerateITs(g *graph.Graph, moduloReversal bool) ([]*Node, error) {
	if err := enumerable(g); err != nil {
		return nil, err
	}
	var splits []Split
	Splits(g, func(sp Split) bool {
		if sp.Op != Leaf {
			sp.Cut = nil // the buffer is reused; trees take the predicate from CutPred
			splits = append(splits, sp)
		}
		return true
	})
	// Smaller node sets first, so the trees of both halves are complete
	// when a split combines them; within a set larger S1 first, the order
	// trees have always been listed in.
	sort.Slice(splits, func(i, j int) bool {
		si, sj := splits[i].S1|splits[i].S2, splits[j].S1|splits[j].S2
		if si.Count() != sj.Count() {
			return si.Count() < sj.Count()
		}
		if si != sj {
			return si < sj
		}
		return splits[i].S1 > splits[j].S1
	})
	trees := map[graph.NodeSet][]*Node{}
	for i := 0; i < g.NumNodes(); i++ {
		trees[graph.NodeSet(1)<<uint(i)] = []*Node{NewLeaf(g.Node(i))}
	}
	for _, sp := range splits {
		pred, out := CutPred(g, sp.S1, sp.S2), trees[sp.S1|sp.S2]
		for _, l := range trees[sp.S1] {
			for _, r := range trees[sp.S2] {
				// Canonical form (a directed operator has its preserved
				// side on the left) and, unless modulo reversal, its mirror.
				n := &Node{Op: sp.Op, Left: l, Right: r, Pred: pred}
				if !sp.S1Preserved {
					n.Left, n.Right = r, l
				}
				if out = append(out, n); !moduloReversal {
					mirror, _ := reverse(n)
					out = append(out, mirror)
				}
			}
		}
		trees[sp.S1|sp.S2] = out
	}
	return trees[g.AllNodes()], nil
}

// CountITs returns the number of implementing trees of g without
// materializing them.
func CountITs(g *graph.Graph, moduloReversal bool) (int64, error) {
	if err := enumerable(g); err != nil {
		return 0, err
	}
	// Splits yields the partitions of both halves before the pair itself,
	// so each half's count is final when it is read.
	counts := map[graph.NodeSet]int64{}
	count := func(s graph.NodeSet) int64 {
		if s.Count() == 1 {
			return 1
		}
		return counts[s]
	}
	Splits(g, func(sp Split) bool {
		if sp.Op != Leaf {
			n := count(sp.S1) * count(sp.S2)
			if !moduloReversal {
				n *= 2
			}
			counts[sp.S1|sp.S2] += n
		}
		return true
	})
	return count(g.AllNodes()), nil
}

func enumerable(g *graph.Graph) error {
	if g.NumNodes() == 0 {
		return fmt.Errorf("expr: empty graph")
	}
	if !g.Connected() {
		return fmt.Errorf("expr: graph is not connected")
	}
	return nil
}

// Split is a binary partition of a connected node set into two connected
// halves with at least one edge between them. S1 holds the set's
// lowest-index node. When the cut edges collapse into one operator, Op is
// Join, LeftOuter or Semijoin, and for the directed ones S1Preserved
// tells which half is the preserved side; otherwise (mixed kinds, several
// directed edges) Op is Leaf: the set is connected, but this partition of
// it implements nothing.
type Split struct {
	S1, S2      graph.NodeSet
	Op          Op
	S1Preserved bool
	// Cut indexes the cut edges in g.Edges(). The slice is reused between
	// yields; a consumer that keeps a Split must copy or drop it.
	Cut []int
}

// CutPred returns the predicate of the operator a split into s1 and s2
// stands for: the conjunction, in edge order, of the predicates of the
// edges between them.
func CutPred(g *graph.Graph, s1, s2 graph.NodeSet) predicate.Predicate {
	cut := g.CutEdges(s1, s2)
	if len(cut) == 1 {
		return cut[0].Pred
	}
	preds := make([]predicate.Predicate, len(cut))
	for i, e := range cut {
		preds[i] = e.Pred
	}
	return predicate.NewAnd(preds...)
}

// Splits is the split rule that defines implementing trees, applied to
// every connected node set of g at once: yield is called exactly once for
// each unordered pair of disjoint connected sets joined by an edge, until
// it returns false. The pairs are generated directly — a connected set is
// grown from its lowest node by neighbour expansion, and its complements
// are grown the same way from its neighbours (Moerkotte and Neumann's
// DPccp) — so on an acyclic graph the work is one step per edge cut, not
// one per subset of the power set. Every pair that partitions S1 or S2 is
// yielded before (S1, S2) itself, which is the order a dynamic program
// over node sets needs. The optimizer's plan search and the IT enumerator
// share this rule.
func Splits(g *graph.Graph, yield func(Split) bool) {
	sp := &splitter{g: g, yield: yield, ends: make([]graph.NodeSet, len(g.Edges()))}
	for i, e := range g.Edges() {
		u, v := e.Ends()
		sp.ends[i] = graph.NodeSet(0).With(u).With(v)
	}
	for i := g.NumNodes() - 1; i >= 0 && !sp.done; i-- {
		// Connected sets whose lowest node is i: nodes below i are barred.
		v := graph.NodeSet(1) << uint(i)
		sp.complements(v)
		sp.grow(v, v|(v-1), 0)
	}
}

type splitter struct {
	g     *graph.Graph
	yield func(Split) bool
	ends  []graph.NodeSet // per edge, its two endpoints
	cut   []int
	done  bool
}

// grow visits every connected superset of s that avoids x, smaller
// supersets first. With s1 zero each one is a first half, and its
// complements are enumerated; otherwise it is a complement of s1.
func (sp *splitter) grow(s, x, s1 graph.NodeSet) {
	n := sp.g.Neighbours(s) &^ x
	for sub := -n & n; sub != 0 && !sp.done; sub = (sub - n) & n {
		if s1 == 0 {
			sp.complements(s | sub)
		} else {
			sp.pair(s1, s|sub)
		}
	}
	for sub := -n & n; sub != 0 && !sp.done; sub = (sub - n) & n {
		sp.grow(s|sub, x|n, s1)
	}
}

// complements pairs s1 with every connected set that touches it and lies
// entirely above s1's lowest node (so each unordered pair appears once).
// Each is grown from its lowest neighbour of s1.
func (sp *splitter) complements(s1 graph.NodeSet) {
	low := s1 & -s1
	x := s1 | (low - 1)
	n := sp.g.Neighbours(s1) &^ x
	for rest := n; rest != 0 && !sp.done; {
		v := graph.NodeSet(1) << uint(63-bits.LeadingZeros64(uint64(rest)))
		rest &^= v
		sp.pair(s1, v)
		sp.grow(v, x|(n&(v-1)), s1)
	}
}

// pair classifies the cut between s1 and s2 and yields the split.
func (sp *splitter) pair(s1, s2 graph.NodeSet) {
	edges := sp.g.Edges()
	cut, directed := sp.cut[:0], 0
	for i, ends := range sp.ends {
		if ends&s1 != 0 && ends&s2 != 0 {
			cut = append(cut, i)
			if edges[i].Kind != graph.JoinEdge {
				directed++
			}
		}
	}
	sp.cut = cut
	out := Split{S1: s1, S2: s2, Cut: cut}
	switch {
	case directed == 0:
		out.Op, out.S1Preserved = Join, true
	case directed == 1 && len(cut) == 1:
		out.Op = LeftOuter
		if edges[cut[0]].Kind == graph.SemiEdge {
			out.Op = Semijoin
		}
		u, _ := edges[cut[0]].Ends()
		out.S1Preserved = s1.Has(u)
	}
	sp.done = !sp.yield(out)
}
