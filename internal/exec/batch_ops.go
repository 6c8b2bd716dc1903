package exec

import (
	"fmt"

	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// resolveBatchSize picks the batch size an operator opens with: its
// configured size, else the default.
func resolveBatchSize(configured int) int {
	if configured > 0 {
		return configured
	}
	return DefaultBatchSize
}

// ensureBatch returns out if it matches the wanted scheme and capacity,
// else a fresh batch; either way the result is empty.
func ensureBatch(out *Batch, scheme *relation.Scheme, size int) *Batch {
	if out == nil || out.Scheme() != scheme || out.Cap() != size {
		return NewBatch(scheme, size)
	}
	out.Reset()
	return out
}

// BatchScan scans a table a batch at a time: each NextBatch copies up
// to size rows into a reused slab, with one error check and one counter
// update per batch. An index scan (NewBatchIndexScan) reads only the
// rows a hash index lists for one value. Each fetched row counts as one
// retrieved tuple.
type BatchScan struct {
	table     *storage.Table
	counters  *Counters
	size      int
	positions []int // an index scan's row positions (non-nil); nil for a full scan

	ec        *ExecContext
	pos, rows int
	out       *Batch
}

// NewBatchScan returns a batched full-table scan; size <= 0 means
// DefaultBatchSize.
func NewBatchScan(t *storage.Table, c *Counters, size int) *BatchScan {
	return &BatchScan{table: t, counters: c, size: size}
}

// NewBatchIndexScan returns a batched scan of the rows of t whose column
// col equals v, looked up once in t's hash index on col — the access
// path a pushed-down equality restriction earns when the column is
// indexed.
func NewBatchIndexScan(t *storage.Table, col string, v relation.Value, c *Counters, size int) (*BatchScan, error) {
	idx, ok := t.HashIndexOn(col)
	if !ok {
		return nil, fmt.Errorf("exec: table %s has no hash index on %s", t.Name(), col)
	}
	positions := idx.Lookup(v)
	if positions == nil {
		positions = []int{} // a miss is still an index scan
	}
	return &BatchScan{table: t, counters: c, size: size, positions: positions}, nil
}

// Scheme implements Iterator.
func (s *BatchScan) Scheme() *relation.Scheme { return s.table.Scheme() }

// Open implements Iterator.
func (s *BatchScan) Open(ec *ExecContext) error {
	s.ec = ec
	s.pos = 0
	if s.positions != nil {
		s.rows = len(s.positions)
	} else {
		s.rows = s.table.Relation().Len()
	}
	return ec.Err("scan")
}

// NextBatch implements Iterator.
func (s *BatchScan) NextBatch() (*Batch, bool, error) {
	if err := s.ec.Err("scan"); err != nil {
		return nil, false, err
	}
	if s.pos >= s.rows {
		return nil, false, nil
	}
	// The slab is taken at the first batch, not at Open: opening a
	// scan (a join's probe side, opened as its build ends) takes none.
	s.out = ensureBatch(s.out, s.table.Scheme(), resolveBatchSize(s.size))
	rel := s.table.Relation()
	n := min(s.out.Cap(), s.rows-s.pos)
	if s.positions != nil {
		for _, p := range s.positions[s.pos : s.pos+n] {
			s.out.AppendRow(rel.RawRow(p))
		}
	} else {
		for i := 0; i < n; i++ {
			s.out.AppendRow(rel.RawRow(s.pos + i))
		}
	}
	s.pos += n
	s.counters.AddTuples(int64(n))
	return s.out, true, nil
}

// Close implements Iterator.
func (s *BatchScan) Close() error {
	s.out = releaseBatch(s.out)
	return nil
}

// BatchFilter applies a predicate a batch at a time, compacting
// survivors in place in the child's batch — the ownership contract lets
// the caller overwrite a batch it was handed, so filtering allocates
// and copies nothing.
type BatchFilter struct {
	child Iterator
	bound predicate.Bound
}

// NewBatchFilter compiles p against the child's scheme.
func NewBatchFilter(child Iterator, p predicate.Predicate) (*BatchFilter, error) {
	b, err := predicate.Bind(p, child.Scheme())
	if err != nil {
		return nil, fmt.Errorf("exec: filter: %w", err)
	}
	return &BatchFilter{child: child, bound: b}, nil
}

// Scheme implements Iterator.
func (f *BatchFilter) Scheme() *relation.Scheme { return f.child.Scheme() }

// Open implements Iterator.
func (f *BatchFilter) Open(ec *ExecContext) error {
	if err := ec.Err("filter"); err != nil {
		return err
	}
	return f.child.Open(ec)
}

// NextBatch implements Iterator.
func (f *BatchFilter) NextBatch() (*Batch, bool, error) {
	for {
		b, ok, err := f.child.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		keep := 0
		for i := 0; i < b.Len(); i++ {
			if f.bound.Holds(b.Row(i)) {
				b.MoveRow(keep, i)
				keep++
			}
		}
		if keep == 0 {
			continue // fully filtered batch: pull the next one
		}
		b.Truncate(keep)
		return b, true, nil
	}
}

// Close implements Iterator.
func (f *BatchFilter) Close() error { return f.child.Close() }
