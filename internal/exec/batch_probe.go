package exec

import (
	"fmt"

	"freejoin/internal/exec/spill"
	"freejoin/internal/obs"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// BatchIndexJoin is the index join: left batches drive hash probes into
// the inner table's index — the access path of Example 1's cheap plan —
// and matches are emitted as
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
}

// NewBatchIndexJoin probes inner's hash index on idxCol with the value
// of outerKey in each left row. residual may be nil; sch is the output
// scheme when the caller has it (nil derives it); size <= 0 means
// DefaultBatchSize.
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
	j.out = ensureBatch(j.out, j.scheme, resolveBatchSize(j.size))
	j.lb, j.lpos, j.ldone = nil, 0, false
	j.pendRow, j.pendPositions, j.pendPos = nil, nil, 0
	j.fetched = 0
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

// NextBatch implements Iterator, flushing the amortized
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
			b, ok, err := j.left.NextBatch()
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
// tuple.
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

// Close implements Iterator.
func (j *BatchIndexJoin) Close() error {
	j.out = releaseBatch(j.out)
	j.lb, j.pendRow, j.pendPositions = nil, nil, nil
	return j.left.Close()
}

// BatchNestedLoopJoin joins on an arbitrary predicate. The right input
// is materialized once at Open into flat value slabs (one copy per
// batch, not per row), and each left row scans them, emitting into a
// reused output batch. Governor accounting is amortized per build batch.
//
// A memory-budget trip during the materialization with spilling on
// moves the right input to one run of the operator's spill file — the
// slabs built so far and the rest of the right stream — and each left
// batch then scans the run once (a block nested loop), in memory that
// stays flat. A right input that already is a run (a grace hash join's
// over-budget partition) is scanned in place. With spilling off the
// typed resource error surfaces.
//
// In SemiMode the join is the semijoin reducer for non-equi predicates
// and feeds the reduction counters (obs.SemiReduceInputRows/OutputRows).
type BatchNestedLoopJoin struct {
	left, right Iterator
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

	lb    *Batch
	next  *Batch // a left batch the Open-time peek read past, probed after lb
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
	// charged). first holds a copy of a one-row first left batch (the
	// peek-ahead pull that proves the left is exhausted invalidates the
	// original): the driving row, or the first left batch when more
	// follow.
	stream    bool
	first     *Batch
	sdone     bool
	smatched  bool
	rightOpen bool
	srb       *Batch // right batch suspended mid-emission
	srpos     int

	// The right input after a build trip with spilling on: a scan of its
	// run (in file, unless the input was a run already), restarted for
	// every left batch. lb's rows are matched against the run batch rb
	// from left row lpos, run row rpos; matched records each left row's
	// outcome until the scan ends and tail emits it.
	file     *spill.File
	rscan    *runScan
	rb       *Batch
	rpos     int
	matched  []bool
	nmatched int
	tail     bool
	spst     SpillStats

	out *Batch
}

// NewBatchNestedLoopJoin builds a nested-loop join with predicate p. sch
// is the output scheme when the caller has it (nil derives it); size <=
// 0 means DefaultBatchSize.
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
	n := &BatchNestedLoopJoin{left: left, right: right, scheme: sch, bound: b,
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

// Scheme implements Iterator.
func (n *BatchNestedLoopJoin) Scheme() *relation.Scheme { return n.scheme }

// Open implements Iterator: peeks the left input, then either streams
// the right side (single driving row) or materializes it a batch at a
// time.
func (n *BatchNestedLoopJoin) Open(ec *ExecContext) error {
	n.resetBuild(n.ec) // re-Open without Close: drop stale slab + charge
	n.dropRun()        // ... and any stale spill run
	if n.rightOpen {
		n.rightOpen = false
		n.right.Close()
	}
	n.ec = ec
	n.lb, n.next, n.lpos, n.ldone = nil, nil, 0, false
	n.pendRow, n.pendChunk, n.pendOff, n.pendMatched = nil, 0, 0, false
	n.stream, n.sdone, n.smatched = false, false, false
	n.srb, n.srpos = nil, 0
	n.spst = SpillStats{}
	if err := ec.Err("nestedloop"); err != nil {
		return err
	}
	n.out = ensureBatch(n.out, n.scheme, resolveBatchSize(n.size))
	if err := n.left.Open(ec); err != nil {
		return err
	}
	lb, ok, err := n.pullLeft()
	if err != nil {
		return err
	}
	if !ok {
		// Empty left input: run the normal build anyway so governor and
		// fault behavior are unchanged; the probe loop emits nothing.
		n.ldone = true
		return n.buildRight(ec)
	}
	n.lb = lb
	if lb.Len() == 1 {
		n.first = ensureBatch(n.first, lb.Scheme(), 1)
		n.first.AppendRow(lb.Row(0))
		lb2, more, err := n.pullLeft()
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
		// More left input after all: probe the copied row first, then
		// continue from the current batch.
		n.lb, n.next = n.first, lb2
	}
	return n.buildRight(ec)
}

// pullLeft reads the next left batch, counting its rows into the
// reduction counters in SemiMode.
func (n *BatchNestedLoopJoin) pullLeft() (*Batch, bool, error) {
	b, ok, err := n.left.NextBatch()
	if ok && n.mode == SemiMode {
		obs.SemiReduceInputRows.Add(int64(b.Len()))
	}
	return b, ok, err
}

// nextLeft moves lb to the next left batch — the one the peek read
// past, else the child's next — and reports false at the end of input.
func (n *BatchNestedLoopJoin) nextLeft() (bool, error) {
	if n.next != nil {
		n.lb, n.lpos, n.next = n.next, 0, nil
		return true, nil
	}
	if n.ldone {
		return false, nil
	}
	b, ok, err := n.pullLeft()
	if err != nil {
		return false, err
	}
	if !ok {
		n.ldone = true
		return false, nil
	}
	n.lb, n.lpos = b, 0
	return true, nil
}

// buildRight materializes the right input into chunks; a memory trip
// with spilling on moves it to a run instead.
func (n *BatchNestedLoopJoin) buildRight(ec *ExecContext) error {
	if err := n.right.Open(ec); err != nil {
		n.right.Close()
		return err
	}
	for {
		b, ok, err := n.right.NextBatch()
		if err != nil {
			n.right.Close()
			n.resetBuild(ec)
			return err
		}
		if !ok {
			break
		}
		// Amortized accounting: one reservation per build batch.
		if err := n.held.chargeN(ec, "nestedloop", int64(b.Len()), b.Bytes()); err != nil {
			if spillable(ec, err) {
				err = n.spill(ec, b)
			}
			if cerr := n.right.Close(); err == nil {
				err = cerr
			}
			n.resetBuild(ec)
			if err != nil {
				n.dropRun()
			}
			return err
		}
		vals := valuePool.Get(len(b.vals))
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

// spill moves a tripped build to one run: the chunks, the batch b whose
// charge tripped and the rest of the right stream. A right input that
// is a run already is scanned where it is. The probe then starts its
// scan of lb, if any.
func (n *BatchNestedLoopJoin) spill(ec *ExecContext, b *Batch) error {
	var run *spill.Run
	if rs, ok := n.right.(*runScan); ok {
		run = rs.run
	} else {
		held := make([][]relation.Value, 0, len(n.chunks)+1)
		for _, ch := range n.chunks {
			held = append(held, ch.vals)
		}
		f, r, err := spillRest(ec, "nestedloop", "inner input", append(held, b.vals),
			func() { n.resetBuild(ec) }, n.right)
		if err != nil {
			return err
		}
		n.file, run = f, r
		n.spst = SpillStats{Runs: 1, Bytes: r.Bytes}
	}
	n.rscan = &runScan{run: run, scheme: n.right.Scheme(), size: resolveBatchSize(n.size)}
	if n.lb != nil {
		n.startScan()
	}
	return nil
}

// startScan begins lb's scan of the spilled run.
func (n *BatchNestedLoopJoin) startScan() {
	k := n.lb.Len()
	if cap(n.matched) < k {
		n.matched = make([]bool, k)
	}
	n.matched = n.matched[:k]
	clear(n.matched)
	n.nmatched, n.tail, n.rb, n.lpos = 0, false, nil, 0
	n.rscan.Open(n.ec) // rewinds; a runScan's Open cannot fail
}

// dropRun releases the spill run's scan and the file holding it, if
// any. A run scanned in place belongs to its producer and stays.
func (n *BatchNestedLoopJoin) dropRun() {
	if n.rscan != nil {
		n.rscan.Close()
		n.rscan = nil
	}
	n.rb = nil
	n.file.Close()
	n.file = nil
}

// nlChunk is one materialized right batch: rows*width values in a slab.
type nlChunk struct {
	vals []relation.Value
	rows int
}

// NextBatch implements Iterator: the probe loop.
func (n *BatchNestedLoopJoin) NextBatch() (*Batch, bool, error) {
	b, ok, err := n.nextBatch()
	if ok && n.mode == SemiMode {
		obs.SemiReduceOutputRows.Add(int64(b.Len()))
	}
	return b, ok, err
}

func (n *BatchNestedLoopJoin) nextBatch() (*Batch, bool, error) {
	if err := n.ec.Err("nestedloop"); err != nil {
		return nil, false, err
	}
	if n.stream {
		return n.streamBatch()
	}
	out := n.out
	out.Reset()
	var err error
	if n.rscan != nil {
		err = n.probeRun(out)
	} else {
		err = n.probe(out)
	}
	if err != nil || out.Len() == 0 {
		return nil, false, err
	}
	return out, true, nil
}

// probe is the in-memory probe: each left row scans the chunks.
func (n *BatchNestedLoopJoin) probe(out *Batch) error {
	for {
		if n.pendRow != nil {
			n.drainPend(out)
			if out.Full() {
				return nil
			}
		}
		if n.lb == nil || n.lpos >= n.lb.Len() {
			if ok, err := n.nextLeft(); err != nil || !ok {
				return err
			}
		}
		for n.lpos < n.lb.Len() && !out.Full() && n.pendRow == nil {
			n.pendRow, n.pendChunk, n.pendOff, n.pendMatched = n.lb.Row(n.lpos), 0, 0, false
			n.lpos++
			n.drainPend(out)
		}
		if out.Full() {
			return nil
		}
	}
}

// probeRun is the probe over a spilled right input, a block nested
// loop: each left batch scans the run once, a run batch at a time, and
// matches every one of its rows against each run batch. When the scan
// ends — or, for semi and anti, once every left row has matched — tail
// emits what each row's outcome calls for.
func (n *BatchNestedLoopJoin) probeRun(out *Batch) error {
	for !out.Full() {
		switch {
		case n.lb == nil:
			if err := n.ec.Err("nestedloop"); err != nil {
				return err
			}
			if ok, err := n.nextLeft(); err != nil || !ok {
				return err
			}
			n.startScan()
		case n.tail:
			n.emitOutcomes(out)
		case n.rb == nil || n.lpos >= n.lb.Len():
			b, ok, err := n.rscan.NextBatch()
			if err != nil {
				return err
			}
			decided := (n.mode == SemiMode || n.mode == AntiMode) && n.nmatched == n.lb.Len()
			if !ok || decided {
				n.tail, n.lpos = true, 0
				continue
			}
			n.rb, n.lpos, n.rpos = b, 0, 0
		default:
			n.matchBlock(out)
		}
	}
	return nil
}

// matchBlock matches lb's rows from lpos against rb's rows from rpos,
// emitting inner and leftouter matches until out fills.
func (n *BatchNestedLoopJoin) matchBlock(out *Batch) {
	exists := n.mode == SemiMode || n.mode == AntiMode
	for ; n.lpos < n.lb.Len(); n.lpos, n.rpos = n.lpos+1, 0 {
		if exists && n.matched[n.lpos] {
			continue
		}
		lrow := n.lb.Row(n.lpos)
		for n.rpos < n.rb.Len() {
			if out.Full() {
				return
			}
			rrow := n.rb.Row(n.rpos)
			n.rpos++
			if !n.matches(lrow, rrow) {
				continue
			}
			if !n.matched[n.lpos] {
				n.matched[n.lpos] = true
				n.nmatched++
			}
			if exists {
				break
			}
			out.AppendConcat(lrow, rrow)
		}
	}
}

// emitOutcomes emits, once lb's scan is over, the null-padded rows of
// unmatched leftouter rows, the matched semi rows and the unmatched
// anti rows, until out fills.
func (n *BatchNestedLoopJoin) emitOutcomes(out *Batch) {
	for n.lpos < n.lb.Len() && !out.Full() {
		i := n.lpos
		n.lpos++
		switch {
		case n.mode == LeftOuterMode && !n.matched[i]:
			out.AppendPad(n.lb.Row(i))
		case n.mode == SemiMode && n.matched[i], n.mode == AntiMode && !n.matched[i]:
			out.AppendRow(n.lb.Row(i))
		}
	}
	if n.lpos >= n.lb.Len() {
		n.lb = nil
	}
}

// matches reports whether lrow joins rrow. A null key never matches.
func (n *BatchNestedLoopJoin) matches(lrow, rrow []relation.Value) bool {
	if n.equi {
		for k, lk := range n.eqL {
			lv, rv := lrow[lk], rrow[n.eqR[k]]
			if lv.IsNull() || rv.IsNull() || lv.Compare(rv) != 0 {
				return false
			}
		}
		return true
	}
	crow := append(append(n.crow[:0], lrow...), rrow...)
	n.crow = crow
	return n.bound.Holds(crow)
}

// streamBatch is the single-driving-row probe: right batches stream
// through once, matches emit immediately, and nothing is materialized.
func (n *BatchNestedLoopJoin) streamBatch() (*Batch, bool, error) {
	if n.sdone {
		return nil, false, nil
	}
	out := n.out
	out.Reset()
	lrow := n.first.Row(0)
	if n.equi {
		for _, k := range n.eqL {
			if lrow[k].IsNull() {
				// 3VL: a null key matches nothing; resolve the row
				// without touching the right input.
				return n.streamFinish(out)
			}
		}
	}
	for {
		if n.srb == nil || n.srpos >= n.srb.Len() {
			b, ok, err := n.right.NextBatch()
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
			if !n.matches(lrow, rrow) {
				continue
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
	lrow := n.first.Row(0)
	switch n.mode {
	case LeftOuterMode:
		if !n.smatched {
			out.AppendPad(lrow)
		}
	case SemiMode:
		if n.smatched {
			out.AppendRow(lrow)
		}
	case AntiMode:
		if !n.smatched {
			out.AppendRow(lrow)
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

// resetBuild returns the chunks to their pool and their charge to the
// governor.
func (n *BatchNestedLoopJoin) resetBuild(ec *ExecContext) {
	for i := range n.chunks {
		valuePool.Put(n.chunks[i].vals)
		n.chunks[i].vals = nil
	}
	n.chunks = n.chunks[:0]
	n.rrows = 0
	n.held.release(ec)
}

// BufferedRows implements Buffered: the slab's row count.
func (n *BatchNestedLoopJoin) BufferedRows() int { return n.rrows }

// SpillInfo implements Spiller: the run of the latest Open cycle's
// spilled right input.
func (n *BatchNestedLoopJoin) SpillInfo() SpillStats { return n.spst }

// Close implements Iterator: the slab (and its charge) or the spill run
// is released.
func (n *BatchNestedLoopJoin) Close() error {
	n.out = releaseBatch(n.out)
	n.first = releaseBatch(n.first)
	n.lb, n.next, n.pendRow, n.srb = nil, nil, nil, nil
	var rerr error
	if n.rightOpen {
		n.rightOpen = false
		rerr = n.right.Close()
	}
	n.resetBuild(n.ec)
	n.chunks = nil
	n.dropRun()
	lerr := n.left.Close()
	if rerr != nil {
		return rerr
	}
	return lerr
}
