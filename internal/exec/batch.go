package exec

import (
	"math/bits"

	"freejoin/internal/pool"
	"freejoin/internal/relation"
)

// Process-wide pools of the executor's slices (see package pool): a
// slice comes back with the capacity it was asked for, so a governor
// charge for n slots covers exactly the n slots held.
var (
	valuePool pool.Pool[relation.Value]   // batch slabs, hash and nested-loop arena chunks, semireduce keys, result slabs
	wordPool  pool.Pool[uint64]           // null bitmaps, semireduce key hashes
	int32Pool pool.Pool[int32]            // hash-table bucket heads and chains
	linkPool  pool.Pool[buildLink]        // the hash join's per-row index entries
	rowsPool  pool.Pool[[]relation.Value] // result row lists and slab lists
)

// releaseBatch recycles a batch's slab and null bitmap and neutralizes
// the batch; it always returns nil so callers can clear their field in
// the same statement (making a second Close a no-op on an
// already-released batch).
func releaseBatch(b *Batch) *Batch {
	if b != nil {
		valuePool.Put(b.vals)
		wordPool.Put(b.nulls)
		b.vals, b.nulls = nil, nil
	}
	return nil
}

// DefaultBatchSize is the number of rows a batch operator accumulates
// per NextBatch call when no explicit size is configured. 1024 rows of
// 40-byte Values keeps a typical batch within L2 while amortizing the
// per-call interface and governor costs ~1000x.
const DefaultBatchSize = 1024

// Batch is a row-slab of tuples: Len() rows of width values stored
// contiguously in a single backing slice, plus a null bitmap with one
// bit per (row, column) slot. The bitmap is maintained by the append
// methods and mirrors relation.Value.IsNull; batch operators use it for
// O(1) null tests feeding S2's 3-valued predicate logic — a null join
// key short-circuits to the outerjoin padding / anti-join branch
// without ever running the equality predicate, and outer padding sets
// the padded columns' bits wholesale.
//
// Ownership follows the iterator contract: a batch returned by
// NextBatch is owned by the producer and valid only until the caller's
// next NextBatch/Close on that producer. The caller MAY mutate it
// in place (filters compact survivors into the same slab); producers
// never re-read a batch they have emitted.
type Batch struct {
	scheme  *relation.Scheme
	width   int
	n       int
	capRows int
	vals    []relation.Value // n*width values, row-major
	nulls   []uint64         // bit i*width+j set iff Row(i)[j] is null
}

// NewBatch returns an empty batch over scheme with capacity rows
// preallocated.
func NewBatch(scheme *relation.Scheme, capacity int) *Batch {
	if capacity <= 0 {
		capacity = DefaultBatchSize
	}
	w := scheme.Len()
	nulls := wordPool.Get((capacity*w + 63) / 64)
	clear(nulls)
	return &Batch{
		scheme:  scheme,
		width:   w,
		capRows: capacity,
		vals:    valuePool.Get(capacity * w)[:0],
		nulls:   nulls,
	}
}

// Scheme returns the batch's row scheme.
func (b *Batch) Scheme() *relation.Scheme { return b.scheme }

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return b.n }

// Cap returns the row capacity the batch was allocated with.
func (b *Batch) Cap() int { return b.capRows }

// Full reports whether the batch has reached its allocated capacity.
func (b *Batch) Full() bool { return b.n >= b.capRows }

// Reset empties the batch for reuse, keeping the allocations.
func (b *Batch) Reset() {
	b.vals = b.vals[:0]
	b.n = 0
	for i := range b.nulls {
		b.nulls[i] = 0
	}
}

// Row returns the i-th row as a view into the slab. The view is valid
// under the same ownership rules as the batch itself.
func (b *Batch) Row(i int) []relation.Value {
	s := i * b.width
	e := s + b.width
	return b.vals[s:e:e]
}

// IsNull reports whether column col of row i is null, from the bitmap.
func (b *Batch) IsNull(i, col int) bool {
	bit := i*b.width + col
	return b.nulls[bit>>6]&(1<<(uint(bit)&63)) != 0
}

// growNulls ensures the bitmap covers bit (appends past the original
// capacity grow the slab; the bitmap must follow).
func (b *Batch) growNulls(bit int) {
	for len(b.nulls) <= bit>>6 {
		b.nulls = append(b.nulls, 0)
	}
}

// noteRowNulls records the null bits of the just-appended row i by
// scanning its values.
func (b *Batch) noteRowNulls(i int) {
	row := b.Row(i)
	base := i * b.width
	b.growNulls(base + b.width - 1)
	for j := range row {
		if row[j].IsNull() {
			b.nulls[(base+j)>>6] |= 1 << (uint(base+j) & 63)
		}
	}
}

// AppendRow copies row into the batch and updates the null bitmap.
func (b *Batch) AppendRow(row []relation.Value) {
	b.vals = append(b.vals, row...)
	i := b.n
	b.n++
	b.noteRowNulls(i)
}

// AppendConcat appends the concatenation of a left and right row — the
// hash-join match emission — without an intermediate allocation.
func (b *Batch) AppendConcat(l, r []relation.Value) {
	b.vals = append(b.vals, l...)
	b.vals = append(b.vals, r...)
	i := b.n
	b.n++
	b.noteRowNulls(i)
}

// AppendPad appends row padded with nulls up to the batch width — the
// outerjoin null-padding emission. The padded columns' null bits are set
// directly; row's bits are scanned.
func (b *Batch) AppendPad(row []relation.Value) {
	b.vals = append(b.vals, row...)
	for j := len(row); j < b.width; j++ {
		b.vals = append(b.vals, relation.Value{})
	}
	i := b.n
	b.n++
	b.noteRowNulls(i)
}

// MoveRow copies row src over row dst within the batch (dst <= src) —
// the in-place compaction a batch filter uses — and fixes the bitmap.
func (b *Batch) MoveRow(dst, src int) {
	if dst == src {
		return
	}
	copy(b.Row(dst), b.Row(src))
	base := dst * b.width
	row := b.Row(dst)
	for j := range row {
		bit := base + j
		if row[j].IsNull() {
			b.nulls[bit>>6] |= 1 << (uint(bit) & 63)
		} else {
			b.nulls[bit>>6] &^= 1 << (uint(bit) & 63)
		}
	}
}

// Truncate shortens the batch to n rows.
func (b *Batch) Truncate(n int) {
	if n < b.n {
		b.vals = b.vals[:n*b.width]
		b.n = n
	}
}

// Bytes estimates the resident size of the batch's rows for governor
// byte accounting, in one pass.
func (b *Batch) Bytes() int64 { return rowBytes(b.vals) }

// collected is a relation being drained from batches: the row list and
// the slabs its rows are carved from, all taken from the pools, so that
// Recycle can give them back once the relation is done with.
type collected struct {
	rows, slabs [][]relation.Value
}

// add copies the batch's rows into a new slab, so the rows do not alias
// the (reused) batch. A full batch's slab takes the batch's capacity; a
// partial one's the next power of two, so small results add no pool
// class per result size.
func (c *collected) add(b *Batch) {
	if b.n == 0 {
		return
	}
	n := len(b.vals)
	slab := valuePool.Get(max(n, min(1<<bits.Len(uint(n-1)), b.capRows*b.width)))[:n]
	copy(slab, b.vals)
	c.slabs = append(rowsPool.Grow(c.slabs, 1), slab)
	c.rows = rowsPool.Grow(c.rows, b.n)
	for i := 0; i < b.n; i++ {
		s := i * b.width
		e := s + b.width
		c.rows = append(c.rows, slab[s:e:e])
	}
}

// result hands the rows over to a relation that owns them.
func (c *collected) result(scheme *relation.Scheme) *relation.Relation {
	return relation.Owning(scheme, c.rows, c.slabs)
}

// recycle gives the rows' storage back to the pools.
func (c *collected) recycle() {
	for _, s := range c.slabs {
		valuePool.Put(s)
	}
	rowsPool.Put(c.slabs)
	rowsPool.Put(c.rows)
	c.rows, c.slabs = nil, nil
}

// Recycle gives the storage of a relation that CollectCtx returned back
// to the pools, for the next result to reuse. The caller yields the
// relation: it is empty afterwards, and no row read from it before may
// be used again. A caller that never recycles leaves the storage to the
// collector. Relations built any other way are left as they are.
// Nil-safe.
func Recycle(r *relation.Relation) {
	rows, slabs := r.Disown()
	c := collected{rows: rows, slabs: slabs}
	c.recycle()
}
