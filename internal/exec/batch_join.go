package exec

import (
	"errors"
	"fmt"

	"freejoin/internal/exec/spill"
	"freejoin/internal/obs"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// BatchHashJoin is the hash join: the right input is drained a batch at
// a time into a chunked value arena indexed by an open-addressed hash
// table (no per-row map or key-string allocations), and the left input
// probes batch by batch, emitting concatenated / padded rows into a
// reused output batch. Governor accounting is amortized: one Reserve per
// build batch instead of one per row.
//
// A memory-budget trip during the build degrades in place, without
// re-running the build child. With spilling enabled the join turns into
// a grace hash join (see spill): what is built so far and the rest of
// the build stream, then the probe stream, are hash-partitioned into one
// spill file, and each partition pair is joined by a sub-join over the
// two runs — which re-partitions one level deeper if it trips too, and
// past SpillConfig.Recursion() hands the pair to a BatchNestedLoopJoin
// that scans the build run in place. With spilling off, the optimizer's
// index fallback (SetFallback) serves the join; with neither, the typed
// resource error surfaces.
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

	// Build arena: one pooled chunk per build batch, sized as that batch's
	// governor charge and never regrown, so no row is re-copied; links
	// (one per row) carry each row's key hash, bucket chain and location.
	// Chunks, links and heads go back to their pools on resetBuild.
	chunks [][]relation.Value
	brows  int
	links  []buildLink
	heads  []int32 // open-addressed: bucket -> first row index (-1 empty)
	mask   uint32

	// Probe state.
	lb    *Batch
	lpos  int
	ldone bool
	crow  []relation.Value // scratch concat row for the residual

	// A left row whose match chain outgrew the output batch: emission
	// resumes here on the next NextBatch. The row stays valid because the
	// left child is not advanced until its batch is fully processed.
	pendRow     []relation.Value
	pendHash    uint32
	pendIdx     int32
	pendMatched bool

	out *Batch

	grace *graceJoin // set by a build trip (a sub-join's is set before it opens)
}

// buildLink is one build row's entry in the hash index.
type buildLink struct {
	hash       uint32 // low half of the row's keyHash
	next       int32  // next row in the same bucket, -1 at the end
	chunk, off int32  // the row is chunks[chunk][off : off+rwidth]
}

// NewBatchHashJoin builds a hash join on leftKeys = rightKeys (attribute
// lists of equal length); residual may be nil. size is the batch size
// (size <= 0 means DefaultBatchSize or the execution context override).
// sch is the output scheme when the caller has it (nil derives it).
func NewBatchHashJoin(left, right Iterator, leftKeys, rightKeys []relation.Attr, residual predicate.Predicate, mode JoinMode, sch *relation.Scheme, size int) (*BatchHashJoin, error) {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("exec: hash join needs matching non-empty key lists")
	}
	sch, err := outputScheme(left.Scheme(), right.Scheme(), sch, mode)
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
		full, err := bindScheme(left.Scheme(), right.Scheme(), sch, mode)
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

// SetFallback registers the spill-off degradation path: when the build
// trips the memory budget and the context does not allow spilling, mk is
// invoked with the (not yet opened) left input and the resulting
// iterator — typically a BatchIndexJoin over the same key — serves the
// join instead. It must produce the same bag over the same output
// scheme.
func (h *BatchHashJoin) SetFallback(mk func(left Iterator) (Iterator, error)) { h.mkFallback = mk }

// Scheme implements Iterator.
func (h *BatchHashJoin) Scheme() *relation.Scheme { return h.scheme }

// Open implements Iterator.
func (h *BatchHashJoin) Open(ec *ExecContext) error {
	h.resetBuild(h.ec) // re-Open without Close: drop stale arena + charge
	h.closeGrace()     // ... and any stale spill state
	h.grace = nil
	h.ec = ec
	h.lb, h.lpos, h.ldone = nil, 0, false
	h.pendRow, h.pendIdx, h.pendMatched = nil, -1, false
	if err := ec.Err("hashjoin"); err != nil {
		return err
	}
	return h.open(ec)
}

// open builds the arena from the right input a batch at a time, then
// opens the left input; a memory trip degrades instead. Sub-joins of a
// grace hash join start here, with their grace state already set.
func (h *BatchHashJoin) open(ec *ExecContext) error {
	h.out = ensureBatch(h.out, h.scheme, resolveBatchSize(h.size))
	if err := h.right.Open(ec); err != nil {
		h.right.Close()
		return h.fallBack(ec, err)
	}
	for {
		b, ok, err := h.right.NextBatch()
		if err != nil {
			h.right.Close()
			h.resetBuild(ec)
			return h.fallBack(ec, err)
		}
		if !ok {
			break
		}
		// Amortized accounting: one reservation per build batch.
		if cerr := h.held.chargeN(ec, "hashjoin", int64(b.Len()), b.Bytes()); cerr != nil {
			if spillable(ec, cerr) && (h.grace == nil || h.grace.depth < ec.Spill().Recursion()) {
				return h.spill(ec, b)
			}
			h.right.Close()
			h.resetBuild(ec)
			return h.fallBack(ec, cerr)
		}
		h.appendBuild(b)
	}
	if err := h.right.Close(); err != nil {
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

// fallBack is the spill-off degradation: on a memory trip with a
// registered index alternative the join delegates to it; any other
// error is surfaced as-is.
func (h *BatchHashJoin) fallBack(ec *ExecContext, err error) error {
	var re *ResourceError
	if h.mkFallback == nil || !errors.As(err, &re) || re.Kind != MemoryExceeded {
		return err
	}
	fb, ferr := h.mkFallback(h.left)
	if ferr != nil {
		return err // keep the original trip
	}
	if oerr := fb.Open(ec); oerr != nil {
		return oerr
	}
	ec.Governor().Note("hashjoin: memory budget trip, degraded to index strategy")
	obs.GovernorDegradations.Inc()
	h.trip().sub = fb
	return nil
}

// appendBuild copies a right batch's non-null-key rows into a pooled
// arena chunk of exactly the whole batch's size: the batch's charge
// covers every slot of it.
func (h *BatchHashJoin) appendBuild(b *Batch) {
	n := b.Len()
	chunk := valuePool.Get(n * h.rwidth)[:0]
	for i := 0; i < n; i++ {
		if !nullKey(b, i, h.rkeys) { // null keys never match; only the left side drives emission
			chunk = append(chunk, b.Row(i)...)
		}
	}
	if len(chunk) == 0 {
		valuePool.Put(chunk)
		return
	}
	h.chunks = append(h.chunks, chunk)
	h.brows += len(chunk) / h.rwidth
}

// keyHash hashes row's key columns, chaining relation.HashJoinKey from
// seed.
func keyHash(seed uint64, row []relation.Value, keys []int) uint64 {
	for _, k := range keys {
		seed = relation.HashJoinKey(seed, row[k])
	}
	return seed
}

// nullKey reports whether row i of b has a null in any key column.
func nullKey(b *Batch, i int, keys []int) bool {
	for _, k := range keys {
		if b.IsNull(i, k) {
			return true
		}
	}
	return false
}

// buildIndex hashes every arena row's join key and lays the
// open-addressed chains over the arena.
func (h *BatchHashJoin) buildIndex() {
	n := 16
	for n < 2*h.brows {
		n <<= 1
	}
	h.mask = uint32(n - 1)
	h.heads = int32Pool.Get(n)
	for i := range h.heads {
		h.heads[i] = -1
	}
	h.links = linkPool.Get(h.brows)
	j := int32(0)
	for c, chunk := range h.chunks {
		for off := 0; off < len(chunk); off += h.rwidth {
			hash := uint32(keyHash(0, chunk[off:], h.rkeys))
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

// NextBatch implements Iterator: the probe loop.
func (h *BatchHashJoin) NextBatch() (*Batch, bool, error) {
	if h.grace != nil && h.grace.tripped {
		return h.graceBatch()
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
			b, ok, err := h.left.NextBatch()
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
	lrow := h.lb.Row(i)
	// Null bitmap short-circuit: a null key column feeds straight into
	// the 3VL outcome (no match) without evaluating the key equality.
	if nullKey(h.lb, i, h.lkeys) {
		switch h.mode {
		case LeftOuterMode:
			out.AppendPad(lrow)
		case AntiMode:
			out.AppendRow(lrow)
		}
		return
	}
	hash := uint32(keyHash(0, lrow, h.lkeys))
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

// resetBuild returns the arena and the index to their pools and the
// arena's governor charge to the governor.
func (h *BatchHashJoin) resetBuild(ec *ExecContext) {
	for _, c := range h.chunks {
		valuePool.Put(c)
	}
	clear(h.chunks)
	h.chunks = h.chunks[:0]
	h.brows = 0
	linkPool.Put(h.links)
	int32Pool.Put(h.heads)
	h.links, h.heads = nil, nil
	h.held.release(ec)
}

// BufferedRows implements Buffered: the arena's row count, or after a
// trip that of the join serving the current partition pair.
func (h *BatchHashJoin) BufferedRows() int {
	if g := h.grace; g != nil && g.sub != nil {
		if b, ok := g.sub.(Buffered); ok {
			return b.BufferedRows()
		}
		return 0
	}
	return h.brows
}

// SpillInfo implements Spiller: the grace partitioning of the latest
// Open cycle, re-partitions included.
func (h *BatchHashJoin) SpillInfo() SpillStats {
	if h.grace == nil {
		return SpillStats{}
	}
	return h.grace.root.spst
}

// Close implements Iterator: the arena (and its charge) and any spill
// state are released.
func (h *BatchHashJoin) Close() error {
	h.out = releaseBatch(h.out)
	h.lb, h.pendRow, h.pendIdx = nil, nil, -1
	err := h.closeGrace()
	h.resetBuild(h.ec)
	h.chunks = nil
	if lerr := h.left.Close(); err == nil {
		err = lerr
	}
	return err
}

// graceJoin is a BatchHashJoin's state once its build has tripped the
// memory budget. The join the plan holds is the root; the sub-joins of
// its partition pairs, one partitioning level deeper each, share the
// root's spill file and stats.
type graceJoin struct {
	root    *graceJoin
	depth   int  // partitioning level: the salt of this join's own split
	tripped bool // the build tripped: NextBatch serves pairs (or the fallback)

	file *spill.File // root only: every run of the operator
	spst SpillStats  // root only

	pairs []gracePair // partition pairs still to join, next one last
	cur   gracePair   // the pair sub is joining
	sub   Iterator    // the current pair's join, or the fallback
}

// gracePair is one partition: the build (r) and probe (l) rows whose
// salted key hash landed in the same bucket.
type gracePair struct{ r, l *spill.Run }

func (p gracePair) drop() {
	p.r.Drop()
	p.l.Drop()
}

// trip marks the join tripped, creating its root grace state if it has
// none yet.
func (h *BatchHashJoin) trip() *graceJoin {
	if h.grace == nil {
		h.grace = &graceJoin{}
		h.grace.root = h.grace
	}
	h.grace.tripped = true
	return h.grace
}

// spill turns a tripped build into a grace hash join. The arena, the
// batch whose charge tripped and the rest of the same build stream are
// hash-partitioned into the spill file and the arena's charge released;
// then the probe side is partitioned the same way, batch by batch,
// leaving one pair of runs per partition for NextBatch to join. The
// build child is never re-opened.
func (h *BatchHashJoin) spill(ec *ExecContext, b *Batch) error {
	g := h.trip()
	if g.root.file == nil {
		f, err := spill.Create(ec, "hashjoin")
		if err != nil {
			h.right.Close()
			h.resetBuild(ec)
			return err
		}
		g.root.file = f
	}
	parts := ec.Spill().Fanout()
	rruns, err := h.partitionBuild(b, parts)
	h.resetBuild(ec) // the build rows now live on disk under the spill budget
	var lruns []*spill.Run
	if err == nil {
		if lruns, err = h.partitionProbe(ec, parts); err != nil {
			for _, r := range rruns {
				r.Drop()
			}
		}
	}
	if err != nil {
		h.closeGrace()
		return err
	}
	st := &g.root.spst
	for i := parts - 1; i >= 0; i-- {
		g.pairs = append(g.pairs, gracePair{r: rruns[i], l: lruns[i]})
		st.Runs += 2
		st.Bytes += rruns[i].Bytes + lruns[i].Bytes
	}
	st.Partitions += int64(parts)
	obs.SpillPartitions.Add(int64(parts))
	if g.depth == 0 {
		obs.GovernorDegradations.Inc()
		ec.Governor().Note(fmt.Sprintf("hashjoin: memory budget trip, grace hash join spilling to %d partitions", parts))
	} else {
		ec.Governor().Note(fmt.Sprintf("hashjoin: re-partitioning over-budget partition at depth %d", g.depth))
	}
	return nil
}

// partitionBuild writes the arena, the tripped batch b and the rest of
// the right input to the build partitions, closing the right input. Null-key rows are
// dropped: they never match.
func (h *BatchHashJoin) partitionBuild(b *Batch, parts int) ([]*spill.Run, error) {
	p := h.newPartitioner(h.rkeys, parts)
	err := func() error {
		for _, chunk := range h.chunks {
			for off := 0; off < len(chunk); off += h.rwidth {
				if err := p.add(chunk[off : off+h.rwidth]); err != nil {
					return err
				}
			}
		}
		for {
			for i := 0; i < b.Len(); i++ {
				if nullKey(b, i, h.rkeys) {
					continue
				}
				if err := p.add(b.Row(i)); err != nil {
					return err
				}
			}
			var ok bool
			var err error
			if b, ok, err = h.right.NextBatch(); err != nil || !ok {
				return err
			}
		}
	}()
	if cerr := h.right.Close(); err == nil {
		err = cerr
	}
	return p.finish(err)
}

// partitionProbe opens the left input and writes it to the probe
// partitions, closing it again. Null-key rows are kept only where the
// mode emits unmatched probe rows; they go to partition 0, whose join
// pads or emits them.
func (h *BatchHashJoin) partitionProbe(ec *ExecContext, parts int) ([]*spill.Run, error) {
	if err := h.left.Open(ec); err != nil {
		return nil, err
	}
	p := h.newPartitioner(h.lkeys, parts)
	keepNull := h.mode == LeftOuterMode || h.mode == AntiMode
	err := func() error {
		for {
			b, ok, err := h.left.NextBatch()
			if err != nil || !ok {
				return err
			}
			for i := 0; i < b.Len(); i++ {
				switch {
				case !nullKey(b, i, h.lkeys):
					err = p.add(b.Row(i))
				case keepNull:
					err = p.ws[0].Append(b.Row(i))
				}
				if err != nil {
					return err
				}
			}
		}
	}()
	if cerr := h.left.Close(); err == nil {
		err = cerr
	}
	return p.finish(err)
}

// partitioner routes rows to one run writer per partition by a hash of
// their join key salted with the partitioning level, so a partition that
// collided at one level spreads out at the next.
type partitioner struct {
	ws   []*spill.Writer
	keys []int
	salt uint64
}

func (h *BatchHashJoin) newPartitioner(keys []int, parts int) *partitioner {
	p := &partitioner{ws: make([]*spill.Writer, parts), keys: keys, salt: partitionSalt(h.grace.depth)}
	for i := range p.ws {
		p.ws[i] = h.grace.root.file.NewWriter()
	}
	return p
}

// partitionSalt seeds the key hash of the partitioning at depth: the
// unsalted hash the in-memory index uses is depth 0's.
func partitionSalt(depth int) uint64 { return uint64(depth) * 0x9e3779b97f4a7c15 }

// part returns the partition row's salted key hash lands in, taken from
// the hash's high half (the index buckets on the low half).
func (p *partitioner) part(row []relation.Value) int {
	return int((keyHash(p.salt, row, p.keys) >> 32) * uint64(len(p.ws)) >> 32)
}

func (p *partitioner) add(row []relation.Value) error {
	return p.ws[p.part(row)].Append(row)
}

// finish seals every partition into a run, or — after err, or if
// sealing fails — frees them all and returns the error.
func (p *partitioner) finish(err error) ([]*spill.Run, error) {
	runs := make([]*spill.Run, 0, len(p.ws))
	for _, w := range p.ws {
		if err != nil {
			w.Abort()
			continue
		}
		var run *spill.Run
		if run, err = w.Finish(); err == nil {
			runs = append(runs, run)
		}
	}
	if err != nil {
		for _, r := range runs {
			r.Drop()
		}
		return nil, err
	}
	return runs, nil
}

// graceBatch serves a tripped join: the current pair's join (or the
// index fallback) batch by batch, then the next pair's.
func (h *BatchHashJoin) graceBatch() (*Batch, bool, error) {
	g := h.grace
	for {
		if err := h.ec.Err("hashjoin"); err != nil {
			return nil, false, err
		}
		if g.sub != nil {
			b, ok, err := g.sub.NextBatch()
			if err != nil || ok {
				return b, ok, err
			}
			err = g.sub.Close() // releases the pair's arena before the next one builds
			g.sub = nil
			g.cur.drop()
			if err != nil {
				return nil, false, err
			}
			continue
		}
		n := len(g.pairs)
		if n == 0 {
			return nil, false, nil
		}
		pair := g.pairs[n-1]
		g.pairs = g.pairs[:n-1]
		if pair.l.Rows == 0 {
			pair.drop() // every mode emits from probe rows only
			continue
		}
		if err := h.startPair(pair); err != nil {
			pair.drop()
			return nil, false, err
		}
	}
}

// startPair opens the join of one partition pair: a sub-join over the
// two runs one partitioning level deeper, which spills again on its own
// trip. A sub-join at the recursion bound gives its trip back instead
// (key skew no re-partitioning can split), and the pair goes to a
// BatchNestedLoopJoin on the key equalities and the residual, which
// scans the build run in place once per probe batch in flat memory.
func (h *BatchHashJoin) startPair(pair gracePair) error {
	g, ec := h.grace, h.ec
	size := resolveBatchSize(h.size)
	sub := &BatchHashJoin{
		left:   &runScan{run: pair.l, scheme: h.left.Scheme(), size: size},
		right:  &runScan{run: pair.r, scheme: h.right.Scheme(), size: size},
		lattrs: h.lattrs, rattrs: h.rattrs, residualP: h.residualP,
		scheme: h.scheme, lkeys: h.lkeys, rkeys: h.rkeys, residual: h.residual,
		mode: h.mode, size: h.size, rwidth: h.rwidth, pendIdx: -1, ec: ec,
		grace: &graceJoin{root: g.root, depth: g.depth + 1},
	}
	err := sub.open(ec)
	if err == nil {
		g.cur, g.sub = pair, sub
		return nil
	}
	sub.Close()
	if !spillable(ec, err) {
		return err
	}
	var conj []predicate.Predicate
	for i := range h.lattrs {
		conj = append(conj, predicate.Eq(h.lattrs[i], h.rattrs[i]))
	}
	if h.residualP != nil {
		conj = append(conj, h.residualP)
	}
	nl, err := NewBatchNestedLoopJoin(sub.left, sub.right, predicate.NewAnd(conj...), h.mode, h.scheme, h.size) // the closed run scans re-open
	if err != nil {
		return err
	}
	if err := nl.Open(ec); err != nil {
		nl.Close()
		return err
	}
	ec.Governor().Note(fmt.Sprintf("hashjoin: partition over budget at depth %d, nested-loop join over its runs", g.depth+1))
	g.cur, g.sub = pair, nl
	return nil
}

// closeGrace releases a tripped join's spill state — the current pair's
// join, the runs of pairs not yet joined, and at the root the spill file
// with every run in it — keeping the record for SpillInfo until the next
// Open.
func (h *BatchHashJoin) closeGrace() error {
	g := h.grace
	if g == nil {
		return nil
	}
	var err error
	if g.sub != nil {
		err = g.sub.Close()
		g.sub = nil
	}
	g.cur.drop()
	for _, p := range g.pairs {
		p.drop()
	}
	g.cur, g.pairs = gracePair{}, nil
	if g.root == g {
		g.file.Close()
		g.file = nil
	}
	return err
}

// runScan reads a spill run back a batch at a time, decoding each row
// straight into the batch slab: the inputs of a grace partition pair's
// join, and a spilled nested-loop join's right input. Opening it again
// rewinds it.
type runScan struct {
	run    *spill.Run
	scheme *relation.Scheme
	size   int
	rd     *spill.Reader
	out    *Batch
}

func (s *runScan) Scheme() *relation.Scheme { return s.scheme }

func (s *runScan) Open(ec *ExecContext) error {
	if s.rd == nil {
		s.rd = s.run.Open()
	} else {
		s.rd.Rewind()
	}
	s.out = ensureBatch(s.out, s.scheme, s.size)
	return nil
}

func (s *runScan) NextBatch() (*Batch, bool, error) {
	b := s.out
	b.Reset()
	for !b.Full() {
		vals, ok, err := s.rd.AppendNext(b.vals)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		if len(vals) != len(b.vals)+b.width {
			return nil, false, fmt.Errorf("exec: spill run row of %d values, want %d", len(vals)-len(b.vals), b.width)
		}
		b.vals = vals
		b.n++
		b.noteRowNulls(b.n - 1)
	}
	if b.Len() == 0 {
		return nil, false, nil
	}
	return b, true, nil
}

func (s *runScan) Close() error {
	s.out = releaseBatch(s.out)
	if s.rd != nil {
		s.rd.Close()
	}
	return nil
}

// BatchSemiReduce is the semijoin filter left ⋉ right for a pure equi
// predicate — the physical semijoin step of the Yannakakis full-reducer
// program. The right input's distinct join keys land in a pooled key
// arena behind an open-addressed set, and each left batch is compacted
// in place down to the rows whose key is present: the output scheme is
// the left scheme, and surviving rows are never copied. Any other
// predicate is served by a BatchNestedLoopJoin in SemiMode
// (NewBatchSemiReduce rejects it).
//
// Governor accounting is amortized per batch over the newly retained
// distinct keys. A memory trip with spilling on continues on a
// BatchNestedLoopJoin in SemiMode over the same children, which
// re-reads the right input and spills it; with spilling off the typed
// resource error surfaces.
type BatchSemiReduce struct {
	left, right Iterator
	pred        predicate.Predicate
	lkeys       []int
	rkeys       []int
	size        int

	ec   *ExecContext
	held hold

	// The key set: each distinct key's values (len(rkeys) per key) and
	// keyHash, chained from heads by the hash's low bits. The arrays are
	// pooled and go back on resetKeys.
	keys   []relation.Value
	hashes []uint64
	heads  []int32
	chain  []int32
	mask   uint32

	nl *BatchNestedLoopJoin // serves the semijoin after a memory trip
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

// Open implements Iterator: drains the right input into the key set.
func (s *BatchSemiReduce) Open(ec *ExecContext) error {
	s.resetKeys(s.ec) // re-Open without Close: drop stale set + charge
	s.ec = ec
	if s.nl != nil {
		// A prior execution tripped: close its join (idempotent) so its
		// spill run cannot leak across a re-Open without Close.
		s.nl.Close()
		s.nl = nil
	}
	if err := ec.Err("semireduce"); err != nil {
		return err
	}
	if err := s.right.Open(ec); err != nil {
		s.right.Close()
		return err
	}
	s.rehash(16)
	for {
		b, ok, err := s.right.NextBatch()
		if err != nil {
			s.right.Close()
			s.resetKeys(ec)
			return err
		}
		if !ok {
			break
		}
		newRows, newBytes := s.insertBatch(b)
		// Charge only the retained (newly distinct) keys, once per batch.
		if cerr := s.held.chargeN(ec, "semireduce", newRows, newBytes); cerr != nil {
			s.right.Close()
			s.resetKeys(ec)
			if !spillable(ec, cerr) {
				return cerr
			}
			return s.spill(ec)
		}
	}
	if err := s.right.Close(); err != nil {
		s.resetKeys(ec)
		return err
	}
	if err := s.left.Open(ec); err != nil {
		s.resetKeys(ec)
		return err
	}
	return nil
}

// spill continues a tripped filter on a nested-loop semijoin over the
// same children: it re-opens them, and spills the right input to a run
// when its own build trips.
func (s *BatchSemiReduce) spill(ec *ExecContext) error {
	nl, err := NewBatchNestedLoopJoin(s.left, s.right, s.pred, SemiMode, nil, s.size)
	if err != nil {
		return err
	}
	ec.Governor().Note("semireduce: memory budget trip, continuing on a nested-loop semijoin")
	if err := nl.Open(ec); err != nil {
		nl.Close()
		return err
	}
	s.nl = nl
	return nil
}

// rehash (re)builds the open-addressed index over the keys held with
// at least n buckets.
func (s *BatchSemiReduce) rehash(n int) {
	nkeys := len(s.hashes)
	for n < 16 || n < 2*nkeys {
		n <<= 1
	}
	int32Pool.Put(s.heads)
	s.heads = int32Pool.Get(n)
	for i := range s.heads {
		s.heads[i] = -1
	}
	s.mask = uint32(n - 1)
	s.chain = int32Pool.Grow(s.chain[:0], nkeys)[:nkeys]
	for i, hash := range s.hashes {
		b := uint32(hash) & s.mask
		s.chain[i] = s.heads[b]
		s.heads[b] = int32(i)
	}
}

// lookup reports whether the key in row's cols (with hash) is in the set.
func (s *BatchSemiReduce) lookup(row []relation.Value, cols []int, hash uint64) bool {
next:
	for j := s.heads[uint32(hash)&s.mask]; j >= 0; j = s.chain[j] {
		if s.hashes[j] != hash {
			continue
		}
		key := s.keys[int(j)*len(cols):]
		for i, c := range cols {
			if !relation.JoinKeyEqual(row[c], key[i]) {
				continue next
			}
		}
		return true
	}
	return false
}

// insertBatch adds a right batch's distinct non-null keys to the set,
// returning the count and byte estimate of the retained source rows.
func (s *BatchSemiReduce) insertBatch(b *Batch) (rows, bytes int64) {
	n := b.Len()
	for i := 0; i < n; i++ {
		if nullKey(b, i, s.rkeys) {
			continue // null keys never match; the filter can skip them
		}
		row := b.Row(i)
		hash := keyHash(0, row, s.rkeys)
		if s.lookup(row, s.rkeys, hash) {
			continue
		}
		s.keys = valuePool.Grow(s.keys, len(s.rkeys))
		for _, k := range s.rkeys {
			s.keys = append(s.keys, row[k])
		}
		s.hashes = append(wordPool.Grow(s.hashes, 1), hash)
		if nkeys := len(s.hashes); 2*nkeys > len(s.heads) {
			s.rehash(2 * len(s.heads))
		} else {
			bkt := uint32(hash) & s.mask
			s.chain = append(int32Pool.Grow(s.chain, 1), s.heads[bkt])
			s.heads[bkt] = int32(nkeys - 1)
		}
		rows++
		bytes += rowBytes(row)
	}
	return rows, bytes
}

// NextBatch implements Iterator: left batches compacted in place.
func (s *BatchSemiReduce) NextBatch() (*Batch, bool, error) {
	if s.nl != nil {
		return s.nl.NextBatch()
	}
	if err := s.ec.Err("semireduce"); err != nil {
		return nil, false, err
	}
	for {
		b, ok, err := s.left.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		n := b.Len()
		obs.SemiReduceInputRows.Add(int64(n))
		keep := 0
		for i := 0; i < n; i++ {
			if nullKey(b, i, s.lkeys) {
				continue // a null key cannot match any right row
			}
			row := b.Row(i)
			if !s.lookup(row, s.lkeys, keyHash(0, row, s.lkeys)) {
				continue
			}
			b.MoveRow(keep, i)
			keep++
		}
		if keep == 0 {
			continue // fully reduced batch: pull the next one
		}
		b.Truncate(keep)
		obs.SemiReduceOutputRows.Add(int64(keep))
		return b, true, nil
	}
}

// resetKeys returns the key set to its pools and its charge to the
// governor.
func (s *BatchSemiReduce) resetKeys(ec *ExecContext) {
	valuePool.Put(s.keys)
	wordPool.Put(s.hashes)
	int32Pool.Put(s.heads)
	int32Pool.Put(s.chain)
	s.keys, s.hashes, s.heads, s.chain = nil, nil, nil, nil
	s.held.release(ec)
}

// BufferedRows implements Buffered: the distinct keys held, or after a
// trip the nested-loop join's buffer.
func (s *BatchSemiReduce) BufferedRows() int {
	if s.nl != nil {
		return s.nl.BufferedRows()
	}
	return len(s.hashes)
}

// SpillInfo implements Spiller: only the nested-loop join a trip hands
// over to spills.
func (s *BatchSemiReduce) SpillInfo() SpillStats {
	if s.nl != nil {
		return s.nl.SpillInfo()
	}
	return SpillStats{}
}

// Close implements Iterator: the key set (and its charge) is released.
// After a trip the nested-loop join owns both children.
func (s *BatchSemiReduce) Close() error {
	if s.nl != nil {
		return s.nl.Close()
	}
	s.resetKeys(s.ec)
	return s.left.Close()
}
