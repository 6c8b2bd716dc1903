package exec

import (
	"errors"
	"fmt"

	"freejoin/internal/obs"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// BatchIndexJoin is the vectorized IndexJoin: left batches drive hash
// probes into the inner table's index, and matches are emitted as
// concatenated (or null-padded) rows into a reused output batch.
// Retrieved-tuple accounting is amortized to one counter update per
// batch. The index and inner relation are static, so a probe whose
// match list outgrows the output batch can suspend and resume on the
// next call without copying anything.
type BatchIndexJoin struct {
	left     Iterator
	inner    *storage.Table
	index    *storage.HashIndex
	outerKey int
	scheme   *relation.Scheme
	residual *predicate.Bound
	mode     JoinMode
	counters *Counters
	iwidth   int
	size     int

	ec      *ExecContext
	bleft   BatchIterator
	lb      *Batch
	lpos    int
	ldone   bool
	crow    []relation.Value // scratch concat row for the residual
	fetched int64            // tuples fetched since the last flush

	// A probe whose matches outgrew the output batch: emission resumes
	// at pendPositions[pendPos]. The row stays valid because the left
	// child is not advanced until its batch is fully processed.
	pendRow       []relation.Value
	pendPositions []int
	pendPos       int

	// Per-left-batch probe results from the index's vectorized span
	// lookup; empty (and unused) when the index has no int probe table.
	spans    []storage.IntSpan
	useSpans bool

	out *Batch
	cur batchCursor
}

// NewBatchIndexJoin mirrors NewIndexJoin with a configured batch size
// (size <= 0 means DefaultBatchSize or the execution context override).
func NewBatchIndexJoin(left Iterator, inner *storage.Table, idxCol string, outerKey relation.Attr,
	residual predicate.Predicate, mode JoinMode, sch *relation.Scheme, c *Counters, size int) (*BatchIndexJoin, error) {
	idx, ok := inner.HashIndexOn(idxCol)
	if !ok {
		return nil, fmt.Errorf("exec: table %s has no hash index on %s", inner.Name(), idxCol)
	}
	kp := left.Scheme().IndexOf(outerKey)
	if kp < 0 {
		return nil, fmt.Errorf("exec: outer key %s not in left scheme %s", outerKey, left.Scheme())
	}
	sch, err := outputScheme(left.Scheme(), inner.Scheme(), sch, mode)
	if err != nil {
		return nil, err
	}
	j := &BatchIndexJoin{left: left, inner: inner, index: idx, outerKey: kp, scheme: sch,
		mode: mode, counters: c, iwidth: inner.Scheme().Len(), size: size}
	if residual != nil {
		full, err := bindScheme(left.Scheme(), inner.Scheme(), sch, mode)
		if err != nil {
			return nil, err
		}
		b, err := predicate.Bind(residual, full)
		if err != nil {
			return nil, fmt.Errorf("exec: index join residual: %w", err)
		}
		j.residual = &b
	}
	return j, nil
}

// Scheme implements Iterator.
func (j *BatchIndexJoin) Scheme() *relation.Scheme { return j.scheme }

// Open implements Iterator.
func (j *BatchIndexJoin) Open(ec *ExecContext) error {
	j.ec = ec
	if err := ec.Err("indexjoin"); err != nil {
		return err
	}
	size := resolveBatchSize(j.size)
	j.out = ensureBatch(j.out, j.scheme, size)
	j.bleft = Batching(j.left, size)
	j.lb, j.lpos, j.ldone = nil, 0, false
	j.pendRow, j.pendPositions, j.pendPos = nil, nil, 0
	j.fetched = 0
	j.cur.reset()
	return j.left.Open(ec)
}

// residualHolds applies the residual (if any) to lrow ++ irow.
func (j *BatchIndexJoin) residualHolds(lrow, irow []relation.Value) bool {
	if j.residual == nil {
		return true
	}
	crow := j.crow[:0]
	crow = append(crow, lrow...)
	crow = append(crow, irow...)
	j.crow = crow
	return j.residual.Holds(crow)
}

// NextBatch implements BatchIterator, flushing the amortized
// retrieved-tuple count once per batch.
func (j *BatchIndexJoin) NextBatch() (*Batch, bool, error) {
	b, ok, err := j.nextBatch()
	if j.fetched > 0 {
		j.counters.AddTuples(j.fetched)
		j.fetched = 0
	}
	return b, ok, err
}

func (j *BatchIndexJoin) nextBatch() (*Batch, bool, error) {
	if err := j.ec.Err("indexjoin"); err != nil {
		return nil, false, err
	}
	out := j.out
	out.Reset()
	for {
		// Resume a suspended match list before advancing the probe.
		if j.pendRow != nil {
			j.drainPend(out)
			if out.Full() {
				return out, true, nil
			}
		}
		if j.lb == nil || j.lpos >= j.lb.Len() {
			if j.ldone {
				break
			}
			b, ok, err := j.bleft.NextBatch()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.ldone = true
				break
			}
			j.lb, j.lpos = b, 0
			if cap(j.spans) < b.Len() {
				j.spans = make([]storage.IntSpan, b.Len())
			}
			j.useSpans = j.index.LookupIntSpans(b.vals, b.width, j.outerKey, j.spans[:b.Len()])
		}
		for j.lpos < j.lb.Len() && !out.Full() && j.pendRow == nil {
			j.probeRow(out, j.lpos)
			j.lpos++
		}
		if out.Full() {
			return out, true, nil
		}
	}
	if out.Len() == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// probeRow probes left row i of the current batch against the index,
// emitting into out. Each fetched inner row counts as one retrieved
// tuple, as in the row operator.
func (j *BatchIndexJoin) probeRow(out *Batch, i int) {
	lrow := j.lb.Row(i)
	var positions []int
	if j.useSpans {
		positions = j.index.SpanRows(j.spans[i])
	} else {
		positions = j.index.Lookup(lrow[j.outerKey])
	}
	rel := j.inner.Relation()
	matched := false
	for pi := 0; pi < len(positions); pi++ {
		irow := rel.RawRow(positions[pi])
		j.fetched++
		if !j.residualHolds(lrow, irow) {
			continue
		}
		matched = true
		if j.mode == InnerMode || j.mode == LeftOuterMode {
			out.AppendConcat(lrow, irow)
			if out.Full() && pi+1 < len(positions) {
				// Matched already, so completion needs no miss handling.
				j.pendRow, j.pendPositions, j.pendPos = lrow, positions, pi+1
				return
			}
		} else {
			break
		}
	}
	switch j.mode {
	case LeftOuterMode:
		if !matched {
			out.AppendPad(lrow)
		}
	case SemiMode:
		if matched {
			out.AppendRow(lrow)
		}
	case AntiMode:
		if !matched {
			out.AppendRow(lrow)
		}
	}
}

// drainPend emits the suspended probe's remaining matches until the
// list or the output batch is exhausted.
func (j *BatchIndexJoin) drainPend(out *Batch) {
	rel := j.inner.Relation()
	for j.pendPos < len(j.pendPositions) && !out.Full() {
		irow := rel.RawRow(j.pendPositions[j.pendPos])
		j.pendPos++
		j.fetched++
		if !j.residualHolds(j.pendRow, irow) {
			continue
		}
		out.AppendConcat(j.pendRow, irow)
	}
	if j.pendPos >= len(j.pendPositions) {
		j.pendRow, j.pendPositions = nil, nil
	}
}

// Next implements Iterator through the batch cursor.
func (j *BatchIndexJoin) Next() ([]relation.Value, bool, error) {
	return j.cur.next(j.NextBatch)
}

// Close implements Iterator.
func (j *BatchIndexJoin) Close() error {
	j.cur.reset()
	j.out = releaseBatch(j.out)
	j.lb, j.pendRow, j.pendPositions = nil, nil, nil
	return j.left.Close()
}

// BatchNestedLoopJoin is the vectorized NestedLoopJoin: the right input
// is materialized once at Open into a flat value slab (one copy per
// batch, not per row), and each left row scans the slab, emitting into
// a reused output batch. Governor accounting is amortized per build
// batch.
//
// A memory-budget trip during the materialization delegates to the row
// NestedLoopJoin over the same children, which brings the spill-run
// path for the inner input.
type BatchNestedLoopJoin struct {
	left, right Iterator
	pred        predicate.Predicate
	scheme      *relation.Scheme
	bound       predicate.Bound
	mode        JoinMode
	rwidth      int
	size        int

	// Pure-equi fast path: compare key columns directly instead of
	// assembling a concat row for the compiled predicate.
	equi     bool
	eqL, eqR []int

	ec   *ExecContext
	held hold

	// The materialized right input, one flat slab per drained batch —
	// append-free chunks avoid the reallocation churn of growing one
	// slab to the full input size.
	chunks []nlChunk
	rrows  int

	bleft BatchIterator
	lb    *Batch
	lpos  int
	ldone bool
	crow  []relation.Value // scratch concat row for the predicate

	// The left row currently scanning the slab; emission resumes at
	// chunk pendChunk, row pendOff on the next call when the output
	// batch fills.
	pendRow     []relation.Value
	pendChunk   int
	pendOff     int
	pendMatched bool

	// Single-driving-row streaming mode: when the left input turns out
	// to be exactly one row, the rescan loop is degenerate and the right
	// input streams through once instead of being materialized (and
	// charged). slrow is a copy of the driving row (the peek-ahead pull
	// that proves the left is exhausted invalidates the original).
	stream    bool
	slrow     []relation.Value
	sdone     bool
	smatched  bool
	bright    BatchIterator
	rightOpen bool
	srb       *Batch // right batch suspended mid-emission
	srpos     int

	out *Batch
	cur batchCursor

	delegate Iterator // row NestedLoopJoin after a build memory trip
}

// NewBatchNestedLoopJoin mirrors NewNestedLoopJoin with a configured
// batch size.
func NewBatchNestedLoopJoin(left, right Iterator, p predicate.Predicate, mode JoinMode, sch *relation.Scheme, size int) (*BatchNestedLoopJoin, error) {
	sch, err := outputScheme(left.Scheme(), right.Scheme(), sch, mode)
	if err != nil {
		return nil, err
	}
	full, err := bindScheme(left.Scheme(), right.Scheme(), sch, mode)
	if err != nil {
		return nil, err
	}
	b, err := predicate.Bind(p, full)
	if err != nil {
		return nil, fmt.Errorf("exec: nested-loop predicate: %w", err)
	}
	n := &BatchNestedLoopJoin{left: left, right: right, pred: p, scheme: sch, bound: b,
		mode: mode, rwidth: right.Scheme().Len(), size: size}
	if la, ra, ok := predicate.EquiParts(p, left.Scheme(), right.Scheme()); ok {
		n.equi = true
		for i := range la {
			n.eqL = append(n.eqL, left.Scheme().IndexOf(la[i]))
			n.eqR = append(n.eqR, right.Scheme().IndexOf(ra[i]))
		}
	}
	return n, nil
}

// DegradedTo returns the row join serving the query after a build
// memory trip, or nil when the batch path ran.
func (n *BatchNestedLoopJoin) DegradedTo() Iterator { return n.delegate }

// Scheme implements Iterator.
func (n *BatchNestedLoopJoin) Scheme() *relation.Scheme { return n.scheme }

// Open implements Iterator: peeks the left input, then either streams
// the right side (single driving row) or materializes it a batch at a
// time.
func (n *BatchNestedLoopJoin) Open(ec *ExecContext) error {
	n.resetBuild(n.ec) // re-Open without Close: drop stale slab + charge
	if n.rightOpen {
		n.rightOpen = false
		n.right.Close()
	}
	n.ec = ec
	if n.delegate != nil {
		// A prior execution delegated: the row join owns the children and
		// any spill run. Close it (idempotent if the plan was closed
		// normally) before rebuilding over the same children, or a
		// re-Open-without-Close would leak its run.
		n.delegate.Close()
		n.delegate = nil
	}
	n.cur.reset()
	n.lb, n.lpos, n.ldone = nil, 0, false
	n.pendRow, n.pendChunk, n.pendOff, n.pendMatched = nil, 0, 0, false
	n.stream, n.sdone, n.smatched = false, false, false
	n.srb, n.srpos = nil, 0
	if err := ec.Err("nestedloop"); err != nil {
		return err
	}
	size := resolveBatchSize(n.size)
	n.out = ensureBatch(n.out, n.scheme, size)
	n.bleft = Batching(n.left, size)
	n.bright = Batching(n.right, size)
	if err := n.left.Open(ec); err != nil {
		return err
	}
	lb, ok, err := n.bleft.NextBatch()
	if err != nil {
		return err
	}
	if !ok {
		// Empty left input: run the normal build anyway so governor and
		// fault behavior are unchanged; the probe loop emits nothing.
		n.ldone = true
		return n.buildRight(ec)
	}
	if lb.Len() == 1 {
		n.slrow = append(n.slrow[:0], lb.Row(0)...)
		lb2, more, err := n.bleft.NextBatch()
		if err != nil {
			return err
		}
		if !more {
			n.stream = true
			n.ldone = true
			if oerr := n.right.Open(ec); oerr != nil {
				n.right.Close()
				return oerr
			}
			n.rightOpen = true
			return nil
		}
		// More left input after all: replay the buffered row through the
		// normal probe path, then continue from the current batch.
		n.pendRow, n.pendChunk, n.pendOff, n.pendMatched = n.slrow, 0, 0, false
		n.lb, n.lpos = lb2, 0
		return n.buildRight(ec)
	}
	n.lb, n.lpos = lb, 0
	return n.buildRight(ec)
}

// buildRight materializes the right input into chunks, delegating to
// the row join on a memory trip.
func (n *BatchNestedLoopJoin) buildRight(ec *ExecContext) error {
	if err := n.right.Open(ec); err != nil {
		n.right.Close()
		return n.tripToRow(ec, err)
	}
	for {
		b, ok, err := n.bright.NextBatch()
		if err != nil {
			n.right.Close()
			n.resetBuild(ec)
			return n.tripToRow(ec, err)
		}
		if !ok {
			break
		}
		// Amortized accounting: one reservation per build batch.
		if cerr := n.held.chargeN(ec, "nestedloop", int64(b.Len()), b.Bytes()); cerr != nil {
			n.right.Close()
			n.resetBuild(ec)
			return n.tripToRow(ec, cerr)
		}
		vals := getSlab(len(b.vals))
		copy(vals, b.vals)
		n.chunks = append(n.chunks, nlChunk{vals: vals, rows: b.Len()})
		n.rrows += b.Len()
	}
	if err := n.right.Close(); err != nil {
		n.resetBuild(ec)
		return err
	}
	return nil
}

// tripToRow delegates a MemoryExceeded build failure to the row
// NestedLoopJoin over the same children (the right child has been
// closed; the delegate re-opens it, a full reset under the iterator
// contract, and brings the spill-run path). Non-memory errors propagate
// unchanged.
func (n *BatchNestedLoopJoin) tripToRow(ec *ExecContext, err error) error {
	var re *ResourceError
	if !errors.As(err, &re) || re.Kind != MemoryExceeded {
		return err
	}
	d, derr := NewNestedLoopJoin(n.left, n.right, n.pred, n.mode, n.scheme)
	if derr != nil {
		return err // keep the original trip
	}
	// The peek opened the left child; the delegate's Open re-opens it,
	// so balance the lifecycle here or the extra open leaks.
	if cerr := n.left.Close(); cerr != nil {
		return cerr
	}
	ec.Governor().Note("nestedloop: batch build memory trip, delegating to row nested loop")
	obs.GovernorDegradations.Inc()
	if oerr := d.Open(ec); oerr != nil {
		return oerr
	}
	n.delegate = d
	return nil
}

// nlChunk is one materialized right batch: rows*width values in a slab.
type nlChunk struct {
	vals []relation.Value
	rows int
}

// NextBatch implements BatchIterator: the probe loop.
func (n *BatchNestedLoopJoin) NextBatch() (*Batch, bool, error) {
	if n.delegate != nil {
		return n.delegateBatch()
	}
	if err := n.ec.Err("nestedloop"); err != nil {
		return nil, false, err
	}
	if n.stream {
		return n.streamBatch()
	}
	out := n.out
	out.Reset()
	for {
		if n.pendRow != nil {
			n.drainPend(out)
			if out.Full() {
				return out, true, nil
			}
		}
		if n.lb == nil || n.lpos >= n.lb.Len() {
			if n.ldone {
				break
			}
			b, ok, err := n.bleft.NextBatch()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				n.ldone = true
				break
			}
			n.lb, n.lpos = b, 0
		}
		for n.lpos < n.lb.Len() && !out.Full() && n.pendRow == nil {
			n.pendRow, n.pendChunk, n.pendOff, n.pendMatched = n.lb.Row(n.lpos), 0, 0, false
			n.lpos++
			n.drainPend(out)
		}
		if out.Full() {
			return out, true, nil
		}
	}
	if out.Len() == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// streamBatch is the single-driving-row probe: right batches stream
// through once, matches emit immediately, and nothing is materialized.
func (n *BatchNestedLoopJoin) streamBatch() (*Batch, bool, error) {
	if n.sdone {
		return nil, false, nil
	}
	out := n.out
	out.Reset()
	lrow := n.slrow
	if n.equi {
		for _, k := range n.eqL {
			if lrow[k].IsNull() {
				// 3VL: a null key matches nothing; resolve the row
				// without touching the right input.
				return n.streamFinish(out)
			}
		}
	}
	var crow []relation.Value
	if !n.equi {
		w := len(lrow) + n.rwidth
		if cap(n.crow) < w {
			n.crow = make([]relation.Value, w)
		}
		crow = n.crow[:w]
		copy(crow, lrow)
	}
	for {
		if n.srb == nil || n.srpos >= n.srb.Len() {
			b, ok, err := n.bright.NextBatch()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return n.streamFinish(out)
			}
			n.srb, n.srpos = b, 0
		}
		for n.srpos < n.srb.Len() {
			rrow := n.srb.Row(n.srpos)
			n.srpos++
			if n.equi {
				hit := true
				for k := range n.eqL {
					rv := rrow[n.eqR[k]]
					if rv.IsNull() || lrow[n.eqL[k]].Compare(rv) != 0 {
						hit = false
						break
					}
				}
				if !hit {
					continue
				}
			} else {
				copy(crow[len(lrow):], rrow)
				if !n.bound.Holds(crow) {
					continue
				}
			}
			n.smatched = true
			switch n.mode {
			case InnerMode, LeftOuterMode:
				out.AppendConcat(lrow, rrow)
				if out.Full() {
					return out, true, nil
				}
			case SemiMode, AntiMode:
				// Existence resolved: the rest of the stream is moot.
				return n.streamFinish(out)
			}
		}
	}
}

// streamFinish emits the driving row's miss/existence result and closes
// the (possibly unexhausted) right input.
func (n *BatchNestedLoopJoin) streamFinish(out *Batch) (*Batch, bool, error) {
	n.sdone = true
	n.srb, n.srpos = nil, 0
	if n.rightOpen {
		n.rightOpen = false
		if err := n.right.Close(); err != nil {
			return nil, false, err
		}
	}
	switch n.mode {
	case LeftOuterMode:
		if !n.smatched {
			out.AppendPad(n.slrow)
		}
	case SemiMode:
		if n.smatched {
			out.AppendRow(n.slrow)
		}
	case AntiMode:
		if !n.smatched {
			out.AppendRow(n.slrow)
		}
	}
	if out.Len() == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// drainPend scans the chunks for the current left row, emitting until
// the input or the output batch is exhausted. The final miss/existence
// row is deferred to the next call if the batch fills first.
func (n *BatchNestedLoopJoin) drainPend(out *Batch) {
	lrow := n.pendRow
	if n.equi {
		// 3VL short-circuit: a null left key matches nothing, so the
		// whole scan resolves to a miss without touching the slab.
		for _, k := range n.eqL {
			if lrow[k].IsNull() {
				n.pendChunk, n.pendOff = len(n.chunks), 0
				break
			}
		}
	}
	var crow []relation.Value
	if !n.equi {
		// The left prefix of the scratch concat row is fixed for the
		// whole scan; only the right suffix changes per candidate.
		w := len(lrow) + n.rwidth
		if cap(n.crow) < w {
			n.crow = make([]relation.Value, w)
		}
		crow = n.crow[:w]
		copy(crow, lrow)
	}
scan:
	for n.pendChunk < len(n.chunks) && !out.Full() {
		ch := &n.chunks[n.pendChunk]
		for n.pendOff < ch.rows {
			s := n.pendOff * n.rwidth
			rrow := ch.vals[s : s+n.rwidth : s+n.rwidth]
			n.pendOff++
			if n.equi {
				hit := true
				for k := range n.eqL {
					rv := rrow[n.eqR[k]]
					if rv.IsNull() || lrow[n.eqL[k]].Compare(rv) != 0 {
						hit = false
						break
					}
				}
				if !hit {
					continue
				}
			} else {
				copy(crow[len(lrow):], rrow)
				if !n.bound.Holds(crow) {
					continue
				}
			}
			n.pendMatched = true
			switch n.mode {
			case InnerMode, LeftOuterMode:
				out.AppendConcat(lrow, rrow)
				if out.Full() {
					break scan
				}
			case SemiMode, AntiMode:
				n.pendChunk, n.pendOff = len(n.chunks), 0 // existence decided
				break scan
			}
		}
		if n.pendOff >= ch.rows {
			n.pendChunk++
			n.pendOff = 0
		}
	}
	if n.pendChunk >= len(n.chunks) {
		switch n.mode {
		case LeftOuterMode:
			if !n.pendMatched {
				if out.Full() {
					return // emit on the next call; pendRow stays set
				}
				out.AppendPad(lrow)
			}
		case SemiMode:
			if n.pendMatched {
				if out.Full() {
					return
				}
				out.AppendRow(lrow)
			}
		case AntiMode:
			if !n.pendMatched {
				if out.Full() {
					return
				}
				out.AppendRow(lrow)
			}
		}
		n.pendRow = nil
	}
}

// delegateBatch serves the row delegate's stream re-batched.
func (n *BatchNestedLoopJoin) delegateBatch() (*Batch, bool, error) {
	out := n.out
	out.Reset()
	for !out.Full() {
		row, ok, err := n.delegate.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		out.AppendRow(row)
	}
	if out.Len() == 0 {
		return nil, false, nil
	}
	return out, true, nil
}

// Next implements Iterator through the batch cursor (or the delegate
// directly).
func (n *BatchNestedLoopJoin) Next() ([]relation.Value, bool, error) {
	if n.delegate != nil {
		return n.delegate.Next()
	}
	return n.cur.next(n.NextBatch)
}

// resetBuild drops the slab and returns its governor charge, keeping
// the allocation for reuse within this Open cycle.
func (n *BatchNestedLoopJoin) resetBuild(ec *ExecContext) {
	for i := range n.chunks {
		putSlab(n.chunks[i].vals)
		n.chunks[i].vals = nil
	}
	n.chunks = n.chunks[:0]
	n.rrows = 0
	n.held.release(ec)
}

// BufferedRows implements Buffered: the slab's row count (or the
// delegate's buffer).
func (n *BatchNestedLoopJoin) BufferedRows() int {
	if n.delegate != nil {
		if b, ok := n.delegate.(Buffered); ok {
			return b.BufferedRows()
		}
		return 0
	}
	return n.rrows
}

// SpillInfo implements Spiller: only the row delegate can spill.
func (n *BatchNestedLoopJoin) SpillInfo() SpillStats {
	if n.delegate != nil {
		if s, ok := n.delegate.(Spiller); ok {
			return s.SpillInfo()
		}
	}
	return SpillStats{}
}

// Close implements Iterator: the slab (and its charge) is released.
// After a delegation the row join owns both children and closes them.
func (n *BatchNestedLoopJoin) Close() error {
	n.cur.reset()
	n.out = releaseBatch(n.out)
	n.lb, n.pendRow, n.srb = nil, nil, nil
	if n.delegate != nil {
		return n.delegate.Close()
	}
	var rerr error
	if n.rightOpen {
		n.rightOpen = false
		rerr = n.right.Close()
	}
	n.resetBuild(n.ec)
	n.chunks = nil
	lerr := n.left.Close()
	if rerr != nil {
		return rerr
	}
	return lerr
}
