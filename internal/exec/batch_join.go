package exec

import (
	"errors"
	"fmt"

	"freejoin/internal/hashutil"
	"freejoin/internal/obs"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// BatchHashJoin is the vectorized hash join: the right input is drained
// a batch at a time into a chunked value arena indexed by an open-addressed
// hash table (no per-row map or key-string allocations), and the left
// input probes batch by batch, emitting concatenated / padded rows into
// a reused output batch. Governor accounting is amortized: one Reserve
// per build batch instead of one per row.
//
// A memory-budget trip during the build delegates to the row HashJoin
// over the same children: the arena is released, the right child is
// closed, and the row join re-opens it and brings its full degradation
// machinery — grace-hash spilling when the context allows it, the
// optimizer's index fallback (SetFallback) otherwise, and the typed
// resource error when neither applies.
type BatchHashJoin struct {
	left, right Iterator
	lattrs      []relation.Attr
	rattrs      []relation.Attr
	residualP   predicate.Predicate
	scheme      *relation.Scheme
	lkeys       []int
	rkeys       []int
	residual    *predicate.Bound
	mode        JoinMode
	mkFallback  func(left Iterator) (Iterator, error)
	size        int
	rwidth      int

	ec   *ExecContext
	held hold

	// Build arena: one chunk per build batch, sized as that batch's
	// governor charge and never regrown, so no row is re-copied; links
	// (one per row) carry each row's key hash, bucket chain and location.
	chunks [][]relation.Value
	brows  int
	links  []buildLink
	heads  []int32 // open-addressed: bucket -> first row index (-1 empty)
	mask   uint32

	// Probe state.
	bleft BatchIterator
	lb    *Batch
	lpos  int
	ldone bool
	kbuf  []byte           // scratch join-key encoding, hashed
	crow  []relation.Value // scratch concat row for the residual

	// A left row whose match chain outgrew the output batch: emission
	// resumes here on the next NextBatch. The row stays valid because the
	// left child is not advanced until its batch is fully processed.
	pendRow     []relation.Value
	pendHash    uint32
	pendIdx     int32
	pendMatched bool

	out *Batch
	cur batchCursor

	delegate Iterator // row HashJoin after a build memory trip
}

// buildLink is one build row's entry in the hash index.
type buildLink struct {
	hash       uint32 // hash of the row's join-key encoding
	next       int32  // next row in the same bucket, -1 at the end
	chunk, off int32  // the row is chunks[chunk][off : off+rwidth]
}

// NewBatchHashJoin mirrors NewHashJoin with a configured batch size
// (size <= 0 means DefaultBatchSize or the execution context override).
func NewBatchHashJoin(left, right Iterator, leftKeys, rightKeys []relation.Attr, residual predicate.Predicate, mode JoinMode, size int) (*BatchHashJoin, error) {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("exec: hash join needs matching non-empty key lists")
	}
	sch, err := outputScheme(left.Scheme(), right.Scheme(), mode)
	if err != nil {
		return nil, err
	}
	h := &BatchHashJoin{
		left: left, right: right,
		lattrs: leftKeys, rattrs: rightKeys, residualP: residual,
		scheme: sch, mode: mode, size: size,
		rwidth:  right.Scheme().Len(),
		pendIdx: -1,
	}
	for _, a := range leftKeys {
		p := left.Scheme().IndexOf(a)
		if p < 0 {
			return nil, fmt.Errorf("exec: hash join key %s not in left scheme", a)
		}
		h.lkeys = append(h.lkeys, p)
	}
	for _, a := range rightKeys {
		p := right.Scheme().IndexOf(a)
		if p < 0 {
			return nil, fmt.Errorf("exec: hash join key %s not in right scheme", a)
		}
		h.rkeys = append(h.rkeys, p)
	}
	if residual != nil {
		full, err := left.Scheme().Concat(right.Scheme())
		if err != nil {
			return nil, err
		}
		b, err := predicate.Bind(residual, full)
		if err != nil {
			return nil, fmt.Errorf("exec: hash join residual: %w", err)
		}
		h.residual = &b
	}
	return h, nil
}

// SetFallback registers the index degradation path, forwarded to the
// row hash join if a build trip delegates to it.
func (h *BatchHashJoin) SetFallback(mk func(left Iterator) (Iterator, error)) { h.mkFallback = mk }

// DegradedTo returns the row hash join serving the query after a build
// memory trip, or nil when the batch path ran.
func (h *BatchHashJoin) DegradedTo() Iterator { return h.delegate }

// Scheme implements Iterator.
func (h *BatchHashJoin) Scheme() *relation.Scheme { return h.scheme }

// Open implements Iterator: builds the arena from the right input a
// batch at a time.
func (h *BatchHashJoin) Open(ec *ExecContext) error {
	h.resetBuild(h.ec) // re-Open without Close: drop stale arena + charge
	h.ec = ec
	if h.delegate != nil {
		// A prior execution delegated: the row join owns the children and
		// any grace-hash spill state. Close it (idempotent if the plan was
		// closed normally) before rebuilding over the same children, or a
		// re-Open-without-Close would leak its runs.
		h.delegate.Close()
		h.delegate = nil
	}
	h.cur.reset()
	h.lb, h.lpos, h.ldone = nil, 0, false
	h.pendRow, h.pendIdx, h.pendMatched = nil, -1, false
	if err := ec.Err("hashjoin"); err != nil {
		return err
	}
	size := resolveBatchSize(ec, h.size)
	h.out = ensureBatch(h.out, h.scheme, size)
	h.bleft = Batching(h.left, size)
	bright := Batching(h.right, size)
	if err := h.right.Open(ec); err != nil {
		bright.Close()
		return h.tripToRow(ec, err)
	}
	for {
		b, ok, err := bright.NextBatch()
		if err != nil {
			bright.Close()
			h.resetBuild(ec)
			return h.tripToRow(ec, err)
		}
		if !ok {
			break
		}
		// Amortized accounting: one reservation per build batch.
		if cerr := h.held.chargeN(ec, "hashjoin", int64(b.Len()), b.Bytes()); cerr != nil {
			bright.Close()
			h.resetBuild(ec)
			return h.tripToRow(ec, cerr)
		}
		h.appendBuild(b)
	}
	if err := bright.Close(); err != nil {
		h.resetBuild(ec)
		return err
	}
	h.buildIndex()
	if err := h.left.Open(ec); err != nil {
		h.resetBuild(ec)
		return err
	}
	return nil
}

// tripToRow delegates a MemoryExceeded build failure to the row
// HashJoin over the same children (the right child has been closed and
// will be re-opened by the delegate, which the iterator contract makes
// a full reset). Non-memory errors propagate unchanged.
func (h *BatchHashJoin) tripToRow(ec *ExecContext, err error) error {
	var re *ResourceError
	if !errors.As(err, &re) || re.Kind != MemoryExceeded {
		return err
	}
	d, derr := NewHashJoin(h.left, h.right, h.lattrs, h.rattrs, h.residualP, h.mode)
	if derr != nil {
		return err // keep the original trip
	}
	if h.mkFallback != nil {
		d.SetFallback(h.mkFallback)
	}
	ec.Governor().Note("hashjoin: batch build memory trip, delegating to row hash join")
	obs.GovernorDegradations.Inc()
	if oerr := d.Open(ec); oerr != nil {
		return oerr
	}
	h.delegate = d
	return nil
}

// appendBuild copies a right batch's non-null-key rows into a new arena
// chunk, sized for the whole batch: the batch's charge covers it.
func (h *BatchHashJoin) appendBuild(b *Batch) {
	n := b.Len()
	chunk := make([]relation.Value, 0, n*h.rwidth)
	for i := 0; i < n; i++ {
		null := false
		for _, k := range h.rkeys {
			if b.IsNull(i, k) {
				null = true
				break
			}
		}
		if null {
			continue // null keys never match; only the left side drives emission
		}
		chunk = append(chunk, b.Row(i)...)
	}
	if len(chunk) > 0 {
		h.chunks = append(h.chunks, chunk)
		h.brows += len(chunk) / h.rwidth
	}
}

// buildIndex hashes every arena row's join key and lays the
// open-addressed chains over the arena.
func (h *BatchHashJoin) buildIndex() {
	n := 16
	for n < 2*h.brows {
		n <<= 1
	}
	h.mask = uint32(n - 1)
	if cap(h.heads) >= n {
		h.heads = h.heads[:n]
	} else {
		h.heads = make([]int32, n)
	}
	for i := range h.heads {
		h.heads[i] = -1
	}
	if cap(h.links) >= h.brows {
		h.links = h.links[:h.brows]
	} else {
		h.links = make([]buildLink, h.brows)
	}
	j := int32(0)
	for c, chunk := range h.chunks {
		for off := 0; off < len(chunk); off += h.rwidth {
			kb := h.kbuf[:0]
			for _, k := range h.rkeys {
				kb = relation.AppendJoinKey(kb, chunk[off+k])
			}
			h.kbuf = kb
			hash := hashutil.Sum32(kb)
			b := hash & h.mask
			h.links[j] = buildLink{hash: hash, next: h.heads[b], chunk: int32(c), off: int32(off)}
			h.heads[b] = j
			j++
		}
	}
}

// buildRow returns build row j as a view into the arena.
func (h *BatchHashJoin) buildRow(j int32) []relation.Value {
	l := &h.links[j]
	e := int(l.off) + h.rwidth
	return h.chunks[l.chunk][l.off:e:e]
}

// matches reports whether build row brow joins left row lrow: equal join
// keys, compared as values (no key bytes are stored per build row), and
// then the residual, if any, on lrow ++ brow.
func (h *BatchHashJoin) matches(lrow, brow []relation.Value) bool {
	for i, k := range h.rkeys {
		if !relation.JoinKeyEqual(lrow[h.lkeys[i]], brow[k]) {
			return false
		}
	}
	if h.residual == nil {
		return true
	}
	crow := h.crow[:0]
	crow = append(crow, lrow...)
	crow = append(crow, brow...)
	h.crow = crow
	return h.residual.Holds(crow)
}

// chainHasMatch walks bucket chain idx for a key/residual match.
func (h *BatchHashJoin) chainHasMatch(lrow []relation.Value, hash uint32, idx int32) bool {
	for j := idx; j >= 0; j = h.links[j].next {
		if h.links[j].hash == hash && h.matches(lrow, h.buildRow(j)) {
			return true
		}
	}
	return false
}

// NextBatch implements BatchIterator: the probe loop.
func (h *BatchHashJoin) NextBatch() (*Batch, bool, error) {
	if h.delegate != nil {
		return h.delegateBatch()
	}
	if err := h.ec.Err("hashjoin"); err != nil {
		return nil, false, err
	}
	out := h.out
	out.Reset()
	for {
		// Resume a suspended match chain before advancing the probe.
		if h.pendRow != nil {
			h.drainChain(out)
			if out.Full() {
				return out, true, nil
			}
		}
		if h.lb == nil || h.lpos >= h.lb.Len() {
			if h.ldone {
				break
			}
			b, ok, err := h.bleft.NextBatch()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				h.ldone = true
				break
			}
			h.lb, h.lpos = b, 0
		}
		for h.lpos < h.lb.Len() && !out.Full() && h.pendRow == nil {
			h.probeRow(out, h.lpos)
			h.lpos++
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

// probeRow probes left row i of the current batch, emitting into out.
// Inner/outer rows with matches hand off to the pending chain walk.
func (h *BatchHashJoin) probeRow(out *Batch, i int) {
	// Null bitmap short-circuit: a null key column feeds straight into
	// the 3VL outcome (no match) without evaluating the key equality.
	null := false
	for _, k := range h.lkeys {
		if h.lb.IsNull(i, k) {
			null = true
			break
		}
	}
	lrow := h.lb.Row(i)
	if null {
		switch h.mode {
		case LeftOuterMode:
			out.AppendPad(lrow)
		case AntiMode:
			out.AppendRow(lrow)
		}
		return
	}
	kb := h.kbuf[:0]
	for _, k := range h.lkeys {
		kb = relation.AppendJoinKey(kb, lrow[k])
	}
	h.kbuf = kb
	hash := hashutil.Sum32(kb)
	idx := h.heads[hash&h.mask]
	switch h.mode {
	case InnerMode, LeftOuterMode:
		if idx < 0 {
			// Empty bucket: resolve the miss inline.
			if h.mode == LeftOuterMode {
				out.AppendPad(lrow)
			}
			return
		}
		h.pendRow, h.pendHash, h.pendIdx, h.pendMatched = lrow, hash, idx, false
	case SemiMode:
		if h.chainHasMatch(lrow, hash, idx) {
			out.AppendRow(lrow)
		}
	case AntiMode:
		if !h.chainHasMatch(lrow, hash, idx) {
			out.AppendRow(lrow)
		}
	}
}

// drainChain emits the pending row's matches until the chain or the
// output batch is exhausted.
func (h *BatchHashJoin) drainChain(out *Batch) {
	for h.pendIdx >= 0 && !out.Full() {
		j := h.pendIdx
		h.pendIdx = h.links[j].next
		if h.links[j].hash != h.pendHash {
			continue
		}
		brow := h.buildRow(j)
		if !h.matches(h.pendRow, brow) {
			continue
		}
		h.pendMatched = true
		out.AppendConcat(h.pendRow, brow)
	}
	if h.pendIdx < 0 {
		if h.mode == LeftOuterMode && !h.pendMatched {
			if out.Full() {
				return // pad on the next call; pendRow stays set
			}
			out.AppendPad(h.pendRow)
		}
		h.pendRow = nil
	}
}

// delegateBatch serves the row delegate's stream re-batched.
func (h *BatchHashJoin) delegateBatch() (*Batch, bool, error) {
	out := h.out
	out.Reset()
	for !out.Full() {
		row, ok, err := h.delegate.Next()
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
// directly, avoiding a pointless re-batching round trip).
func (h *BatchHashJoin) Next() ([]relation.Value, bool, error) {
	if h.delegate != nil {
		return h.delegate.Next()
	}
	return h.cur.next(h.NextBatch)
}

// resetBuild drops the arena and returns its governor charge, keeping
// the index allocations for reuse within this Open cycle.
func (h *BatchHashJoin) resetBuild(ec *ExecContext) {
	clear(h.chunks)
	h.chunks = h.chunks[:0]
	h.brows = 0
	h.held.release(ec)
}

// BufferedRows implements Buffered: the arena's row count (or the
// delegate's buffer).
func (h *BatchHashJoin) BufferedRows() int {
	if h.delegate != nil {
		if b, ok := h.delegate.(Buffered); ok {
			return b.BufferedRows()
		}
		return 0
	}
	return h.brows
}

// SpillInfo implements Spiller: only the row delegate can spill.
func (h *BatchHashJoin) SpillInfo() SpillStats {
	if h.delegate != nil {
		if s, ok := h.delegate.(Spiller); ok {
			return s.SpillInfo()
		}
	}
	return SpillStats{}
}

// Close implements Iterator: the arena (and its charge) is released.
// After a delegation the row join owns both children and closes them.
func (h *BatchHashJoin) Close() error {
	h.cur.reset()
	h.out = releaseBatch(h.out)
	h.lb, h.pendRow, h.pendIdx = nil, nil, -1
	if h.delegate != nil {
		return h.delegate.Close()
	}
	h.resetBuild(h.ec)
	h.chunks, h.links, h.heads = nil, nil, nil
	return h.left.Close()
}

// BatchSemiReduce is the vectorized equi-mode SemiReduce: the right
// input's distinct join keys land in a key-bytes arena behind an
// open-addressed set, and each left batch is compacted in place down to
// the rows whose key is present — the semijoin never copies surviving
// rows. Only pure equi predicates qualify (NewBatchSemiReduce rejects
// anything else; the optimizer lowers those to the row operator).
//
// Governor accounting is amortized per batch over the newly retained
// distinct keys. A memory trip delegates to the row SemiReduce over the
// same children, which brings the spill-to-disk path.
type BatchSemiReduce struct {
	left, right Iterator
	pred        predicate.Predicate
	lkeys       []int
	rkeys       []int
	size        int

	ec   *ExecContext
	held hold

	keyBytes []byte
	koff     []int32
	hashes   []uint32
	nkeys    int
	heads    []int32
	chain    []int32
	mask     uint32

	bleft BatchIterator
	kbuf  []byte
	out   *Batch // delegate mode only: re-batching buffer
	cur   batchCursor

	rowsIn  int64
	rowsOut int64

	delegate *SemiReduce
}

// NewBatchSemiReduce builds the vectorized semijoin filter; p must be a
// pure equi predicate over left/right.
func NewBatchSemiReduce(left, right Iterator, p predicate.Predicate, size int) (*BatchSemiReduce, error) {
	la, ra, ok := predicate.EquiParts(p, left.Scheme(), right.Scheme())
	if !ok {
		return nil, fmt.Errorf("exec: batch semireduce requires a pure equi predicate")
	}
	s := &BatchSemiReduce{left: left, right: right, pred: p, size: size}
	for _, a := range la {
		s.lkeys = append(s.lkeys, left.Scheme().IndexOf(a))
	}
	for _, a := range ra {
		s.rkeys = append(s.rkeys, right.Scheme().IndexOf(a))
	}
	return s, nil
}

// Scheme implements Iterator: semijoins emit left rows unchanged.
func (s *BatchSemiReduce) Scheme() *relation.Scheme { return s.left.Scheme() }

// Equi reports the hash-filter fast path (always true for the batch
// operator).
func (s *BatchSemiReduce) Equi() bool { return true }

// ReduceStats returns the rows that entered and survived the filter
// since the last Open.
func (s *BatchSemiReduce) ReduceStats() (in, out int64) {
	if s.delegate != nil {
		return s.delegate.ReduceStats()
	}
	return s.rowsIn, s.rowsOut
}

// DegradedTo returns the row SemiReduce serving the query after a
// memory trip, or nil.
func (s *BatchSemiReduce) DegradedTo() Iterator {
	if s.delegate != nil {
		return s.delegate
	}
	return nil
}

// Open implements Iterator: drains the right input into the key set.
func (s *BatchSemiReduce) Open(ec *ExecContext) error {
	s.resetKeys(s.ec) // re-Open without Close: drop stale set + charge
	s.ec = ec
	if s.delegate != nil {
		// Close a prior execution's delegate (idempotent) so its state
		// cannot leak across a re-Open without Close.
		s.delegate.Close()
		s.delegate = nil
	}
	s.cur.reset()
	s.rowsIn, s.rowsOut = 0, 0
	if err := ec.Err("semireduce"); err != nil {
		return err
	}
	size := resolveBatchSize(ec, s.size)
	s.bleft = Batching(s.left, size)
	bright := Batching(s.right, size)
	if err := s.right.Open(ec); err != nil {
		bright.Close()
		return err
	}
	s.rehash(16)
	for {
		b, ok, err := bright.NextBatch()
		if err != nil {
			bright.Close()
			s.resetKeys(ec)
			return err
		}
		if !ok {
			break
		}
		newRows, newBytes := s.insertBatch(b)
		// Charge only the retained (newly distinct) keys, once per batch.
		if cerr := s.held.chargeN(ec, "semireduce", newRows, newBytes); cerr != nil {
			bright.Close()
			s.resetKeys(ec)
			return s.tripToRow(ec, cerr)
		}
	}
	if err := bright.Close(); err != nil {
		s.resetKeys(ec)
		return err
	}
	if err := s.left.Open(ec); err != nil {
		s.resetKeys(ec)
		return err
	}
	return nil
}

// tripToRow delegates a MemoryExceeded trip to the row SemiReduce over
// the same children (its spill path handles the budget); other errors
// propagate unchanged.
func (s *BatchSemiReduce) tripToRow(ec *ExecContext, err error) error {
	var re *ResourceError
	if !errors.As(err, &re) || re.Kind != MemoryExceeded {
		return err
	}
	d, derr := NewSemiReduce(s.left, s.right, s.pred)
	if derr != nil {
		return err // keep the original trip
	}
	ec.Governor().Note("semireduce: batch build memory trip, delegating to row semireduce")
	obs.GovernorDegradations.Inc()
	if oerr := d.Open(ec); oerr != nil {
		return oerr
	}
	s.delegate = d
	return nil
}

// rehash (re)builds the open-addressed index over the first nkeys keys
// with at least n buckets.
func (s *BatchSemiReduce) rehash(n int) {
	for n < 16 || n < 2*s.nkeys {
		n <<= 1
	}
	if cap(s.heads) >= n {
		s.heads = s.heads[:n]
	} else {
		s.heads = make([]int32, n)
	}
	for i := range s.heads {
		s.heads[i] = -1
	}
	s.mask = uint32(n - 1)
	if cap(s.chain) >= s.nkeys {
		s.chain = s.chain[:s.nkeys]
	} else {
		s.chain = append(s.chain[:cap(s.chain)], make([]int32, s.nkeys-cap(s.chain))...)
	}
	for i := 0; i < s.nkeys; i++ {
		b := s.hashes[i] & s.mask
		s.chain[i] = s.heads[b]
		s.heads[b] = int32(i)
	}
}

func (s *BatchSemiReduce) keyEnd(j int32) int32 {
	if int(j)+1 < len(s.koff) {
		return s.koff[j+1]
	}
	return int32(len(s.keyBytes))
}

// lookup reports whether the key in kb (with hash) is in the set.
func (s *BatchSemiReduce) lookup(kb []byte, hash uint32) bool {
	for j := s.heads[hash&s.mask]; j >= 0; j = s.chain[j] {
		if s.hashes[j] == hash && string(s.keyBytes[s.koff[j]:s.keyEnd(j)]) == string(kb) {
			return true
		}
	}
	return false
}

// insertBatch adds a right batch's distinct non-null keys to the set,
// returning the count and byte estimate of the retained source rows.
func (s *BatchSemiReduce) insertBatch(b *Batch) (rows, bytes int64) {
	n := b.Len()
	for i := 0; i < n; i++ {
		null := false
		for _, k := range s.rkeys {
			if b.IsNull(i, k) {
				null = true
				break
			}
		}
		if null {
			continue // null keys never match; the filter can skip them
		}
		row := b.Row(i)
		kb := s.kbuf[:0]
		for _, k := range s.rkeys {
			kb = relation.AppendJoinKey(kb, row[k])
		}
		s.kbuf = kb
		hash := hashutil.Sum32(kb)
		if s.lookup(kb, hash) {
			continue
		}
		start := len(s.keyBytes)
		s.keyBytes = append(s.keyBytes, kb...)
		s.koff = append(s.koff, int32(start))
		s.hashes = append(s.hashes, hash)
		j := int32(s.nkeys)
		s.nkeys++
		if 2*s.nkeys > len(s.heads) {
			s.rehash(2 * len(s.heads))
		} else {
			bkt := hash & s.mask
			s.chain = append(s.chain, s.heads[bkt])
			s.heads[bkt] = j
		}
		rows++
		bytes += rowBytes(row)
	}
	return rows, bytes
}

// NextBatch implements BatchIterator: left batches compacted in place.
func (s *BatchSemiReduce) NextBatch() (*Batch, bool, error) {
	if s.delegate != nil {
		return s.delegateBatch()
	}
	if err := s.ec.Err("semireduce"); err != nil {
		return nil, false, err
	}
	for {
		b, ok, err := s.bleft.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		n := b.Len()
		s.rowsIn += int64(n)
		obs.SemiReduceInputRows.Add(int64(n))
		keep := 0
		for i := 0; i < n; i++ {
			null := false
			for _, k := range s.lkeys {
				if b.IsNull(i, k) {
					null = true
					break
				}
			}
			if null {
				continue // a null key cannot match any right row
			}
			row := b.Row(i)
			kb := s.kbuf[:0]
			for _, k := range s.lkeys {
				kb = relation.AppendJoinKey(kb, row[k])
			}
			s.kbuf = kb
			if !s.lookup(kb, hashutil.Sum32(kb)) {
				continue
			}
			b.MoveRow(keep, i)
			keep++
		}
		if keep == 0 {
			continue // fully reduced batch: pull the next one
		}
		b.Truncate(keep)
		s.rowsOut += int64(keep)
		obs.SemiReduceOutputRows.Add(int64(keep))
		return b, true, nil
	}
}

// delegateBatch serves the row delegate's stream re-batched.
func (s *BatchSemiReduce) delegateBatch() (*Batch, bool, error) {
	if s.out == nil {
		s.out = NewBatch(s.Scheme(), resolveBatchSize(s.ec, s.size))
	}
	out := s.out
	out.Reset()
	for !out.Full() {
		row, ok, err := s.delegate.Next()
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
func (s *BatchSemiReduce) Next() ([]relation.Value, bool, error) {
	if s.delegate != nil {
		return s.delegate.Next()
	}
	return s.cur.next(s.NextBatch)
}

// resetKeys drops the key set and returns its governor charge.
func (s *BatchSemiReduce) resetKeys(ec *ExecContext) {
	s.keyBytes = s.keyBytes[:0]
	s.koff = s.koff[:0]
	s.hashes = s.hashes[:0]
	s.chain = s.chain[:0]
	s.nkeys = 0
	s.held.release(ec)
}

// BufferedRows implements Buffered: the distinct keys held (or the
// delegate's buffer).
func (s *BatchSemiReduce) BufferedRows() int {
	if s.delegate != nil {
		return s.delegate.BufferedRows()
	}
	return s.nkeys
}

// SpillInfo implements Spiller: only the row delegate can spill.
func (s *BatchSemiReduce) SpillInfo() SpillStats {
	if s.delegate != nil {
		return s.delegate.SpillInfo()
	}
	return SpillStats{}
}

// Close implements Iterator: the key set (and its charge) is released.
// After a delegation the row operator owns both children.
func (s *BatchSemiReduce) Close() error {
	s.cur.reset()
	s.out = releaseBatch(s.out)
	if s.delegate != nil {
		return s.delegate.Close()
	}
	s.resetKeys(s.ec)
	s.keyBytes, s.koff, s.hashes, s.heads, s.chain = nil, nil, nil, nil, nil
	return s.left.Close()
}
