package exec

import (
	"fmt"

	"freejoin/internal/relation"
)

// HashGOJ computes the generalized outerjoin GOJ[S][p](left, right) of
// §6.2 with the "slightly modified join algorithm" the paper promises: a
// hash join over the equi-keys that additionally tracks which distinct
// S-projections of the left input appeared in at least one join row; at
// end-of-stream the missing projections are emitted padded with nulls.
// Both inputs are read and the output emitted a batch at a time.
type HashGOJ struct {
	left, right Iterator
	scheme      *relation.Scheme
	lkeys       []int
	rkeys       []int
	spos        []int // S columns within the left scheme
	soutPos     []int // S columns within the output scheme
	size        int

	ec        *ExecContext
	held      hold
	table     map[string][][]relation.Value // build rows by join key, copied out of the right batches
	tableRows int
	matched   map[string]struct{}         // S-projections seen in join rows
	all       map[string][]relation.Value // every distinct S-projection of the left input
	order     []string                    // first-seen order of S-projections
	lb        *Batch
	lpos      int
	pendRow   []relation.Value   // the left row whose matches are being emitted
	pend      [][]relation.Value // its matches still to emit
	pad       []relation.Value   // scratch null-padded output row
	tail      int                // index into order while draining unmatched projections
	drained   bool               // left input exhausted
	out       *Batch
}

// NewHashGOJ builds the operator. s must be attributes of the left
// scheme; size <= 0 means DefaultBatchSize.
func NewHashGOJ(left, right Iterator, leftKeys, rightKeys []relation.Attr, s []relation.Attr, size int) (*HashGOJ, error) {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("exec: hash GOJ needs matching non-empty key lists")
	}
	sch, err := left.Scheme().Concat(right.Scheme())
	if err != nil {
		return nil, fmt.Errorf("exec: GOJ schemes overlap: %w", err)
	}
	g := &HashGOJ{left: left, right: right, scheme: sch, size: size}
	for _, a := range leftKeys {
		p := left.Scheme().IndexOf(a)
		if p < 0 {
			return nil, fmt.Errorf("exec: GOJ key %s not in left scheme", a)
		}
		g.lkeys = append(g.lkeys, p)
	}
	for _, a := range rightKeys {
		p := right.Scheme().IndexOf(a)
		if p < 0 {
			return nil, fmt.Errorf("exec: GOJ key %s not in right scheme", a)
		}
		g.rkeys = append(g.rkeys, p)
	}
	for _, a := range s {
		p := left.Scheme().IndexOf(a)
		if p < 0 {
			return nil, fmt.Errorf("exec: GOJ projection attribute %s not in left scheme", a)
		}
		g.spos = append(g.spos, p)
		g.soutPos = append(g.soutPos, sch.IndexOf(a))
	}
	return g, nil
}

// Scheme implements Iterator.
func (g *HashGOJ) Scheme() *relation.Scheme { return g.scheme }

// Open implements Iterator: drains the right input into the hash table,
// charging each batch, then opens the left input.
func (g *HashGOJ) Open(ec *ExecContext) error {
	g.held.release(g.ec) // re-Open without Close: drop any stale charge
	g.ec = ec
	if err := ec.Err("goj"); err != nil {
		return err
	}
	if err := g.build(ec); err != nil {
		g.table, g.tableRows = nil, 0
		g.held.release(ec)
		return err
	}
	g.matched = map[string]struct{}{}
	g.all = map[string][]relation.Value{}
	g.order = nil
	g.lb, g.lpos, g.pendRow, g.pend = nil, 0, nil, nil
	g.tail = 0
	g.drained = false
	g.out = ensureBatch(g.out, g.scheme, resolveBatchSize(g.size))
	if err := g.left.Open(ec); err != nil {
		g.table, g.tableRows = nil, 0
		g.held.release(ec)
		return err
	}
	return nil
}

// build drains the right input into the hash table, closing it. Each
// batch's rows are copied into one slab the table's rows are views of.
func (g *HashGOJ) build(ec *ExecContext) error {
	if err := g.right.Open(ec); err != nil {
		g.right.Close()
		return err
	}
	g.table = map[string][][]relation.Value{}
	g.tableRows = 0
	var buf []byte
	for {
		b, ok, err := g.right.NextBatch()
		if err == nil && ok {
			err = g.held.chargeN(ec, "goj", int64(b.Len()), b.Bytes())
		}
		if err != nil {
			g.right.Close()
			return err
		}
		if !ok {
			break
		}
		slab := append([]relation.Value(nil), b.vals...)
		w := b.width
	rows:
		for off := 0; off < len(slab); off += w {
			row := slab[off : off+w : off+w]
			buf = buf[:0]
			for _, k := range g.rkeys {
				if row[k].IsNull() {
					continue rows
				}
				buf = relation.AppendJoinKey(buf, row[k])
			}
			g.table[string(buf)] = append(g.table[string(buf)], row)
			g.tableRows++
		}
	}
	return g.right.Close()
}

// sKey computes the duplicate-free S-projection key of a left row.
func (g *HashGOJ) sKey(lrow []relation.Value) string {
	var buf []byte
	for _, p := range g.spos {
		buf = relation.AppendKey(buf, lrow[p])
	}
	return string(buf)
}

// NextBatch implements Iterator.
func (g *HashGOJ) NextBatch() (*Batch, bool, error) {
	if err := g.ec.Err("goj"); err != nil {
		return nil, false, err
	}
	out := g.out
	out.Reset()
	for !out.Full() {
		if len(g.pend) > 0 {
			out.AppendConcat(g.pendRow, g.pend[0])
			g.pend = g.pend[1:]
			continue
		}
		if g.drained {
			// Emit the S-projections that never joined, padded.
			if g.tail >= len(g.order) {
				break
			}
			key := g.order[g.tail]
			g.tail++
			if _, ok := g.matched[key]; !ok {
				g.appendPadded(out, g.all[key])
			}
			continue
		}
		if g.lb == nil || g.lpos >= g.lb.Len() {
			b, ok, err := g.left.NextBatch()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				g.drained, g.lb = true, nil
				continue
			}
			g.lb, g.lpos = b, 0
		}
		lrow := g.lb.Row(g.lpos)
		g.lpos++
		if err := g.probe(lrow); err != nil {
			return nil, false, err
		}
	}
	if out.Len() == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// probe records lrow's S-projection and queues its matches. The row is a
// view of the left batch, which is not advanced until they are emitted.
func (g *HashGOJ) probe(lrow []relation.Value) error {
	skey := g.sKey(lrow)
	if _, seen := g.all[skey]; !seen {
		proj := make([]relation.Value, len(g.spos))
		for i, p := range g.spos {
			proj[i] = lrow[p]
		}
		// The S-projection set grows with the stream; charge it.
		if err := g.held.chargeN(g.ec, "goj", 1, rowBytes(proj)); err != nil {
			return err
		}
		g.all[skey] = proj
		g.order = append(g.order, skey)
	}
	var buf []byte
	for _, k := range g.lkeys {
		if lrow[k].IsNull() {
			return nil
		}
		buf = relation.AppendJoinKey(buf, lrow[k])
	}
	if rows := g.table[string(buf)]; len(rows) > 0 {
		g.matched[skey] = struct{}{}
		g.pendRow, g.pend = lrow, rows
	}
	return nil
}

// appendPadded appends an S-projection padded with nulls to the output
// width.
func (g *HashGOJ) appendPadded(out *Batch, proj []relation.Value) {
	if g.pad == nil {
		g.pad = make([]relation.Value, g.scheme.Len())
	}
	for i, dst := range g.soutPos {
		g.pad[dst] = proj[i]
	}
	out.AppendRow(g.pad)
	clear(g.pad)
}

// BufferedRows implements Buffered.
func (g *HashGOJ) BufferedRows() int { return g.tableRows + len(g.all) }

// Close implements Iterator: the build table and S-projection sets (and
// their governor charge) are released.
func (g *HashGOJ) Close() error {
	g.table, g.matched, g.all = nil, nil, nil
	g.tableRows = 0
	g.order = nil
	g.lb, g.pendRow, g.pend = nil, nil, nil
	g.out = releaseBatch(g.out)
	g.held.release(g.ec)
	return g.left.Close()
}
