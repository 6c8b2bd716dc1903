// Package exec is the physical execution engine: Volcano-style iterators
// over the storage layer, with scan/index-lookup accounting. The counter
// of tuples retrieved from base tables is the cost measure of the paper's
// Example 1 ("the first expression retrieves 2·10⁷+1 tuples, and the
// second retrieves only 3").
//
// Every Open takes an *ExecContext (may be nil = ungoverned) carrying a
// context.Context and an optional Governor, so cancellation, deadlines
// and memory budgets propagate into every operator, including the
// blocking ones that materialize their inputs. Operators that buffer rows
// charge the governor as they buffer and release the charge on Close; a
// trip surfaces as a typed *ResourceError naming the operator.
//
// The error contract (enforced by faults_test.go for every operator):
// an Open that returns an error has already closed any children it opened
// and released any buffers and governor charges it acquired; after Next
// returns an error the operator never calls a child's Next again; Close
// is idempotent and always releases buffers and charges.
package exec

import (
	"errors"
	"fmt"
	"sync/atomic"

	"freejoin/internal/exec/spill"
	"freejoin/internal/obs"
	"freejoin/internal/relation"
	"freejoin/internal/resource"
	"freejoin/internal/storage"
)

// Re-exports: the governance types live in internal/resource (below both
// exec and storage); exec is their primary consumer and public face.
type (
	// ExecContext carries cancellation, deadline and memory budget state
	// through Open. A nil *ExecContext means ungoverned execution.
	ExecContext = resource.ExecContext
	// Governor enforces memory budgets over buffered rows.
	Governor = resource.Governor
	// ResourceError is the typed error of a cancelled, timed-out or
	// over-budget execution.
	ResourceError = resource.ResourceError
	// SpillConfig enables and parameterizes spill-to-disk execution;
	// attach one with ExecContext.EnableSpill.
	SpillConfig = resource.SpillConfig
)

// Resource error kinds (see resource.Kind).
const (
	Cancelled        = resource.Cancelled
	DeadlineExceeded = resource.DeadlineExceeded
	MemoryExceeded   = resource.MemoryExceeded
	SpillExceeded    = resource.SpillExceeded
)

// spillable reports whether err is a memory-budget trip that the
// spill-to-disk paths can absorb: spilling must be enabled on the
// context and the error must be a MemoryExceeded governor trip (a
// cancellation or deadline aborts regardless).
func spillable(ec *ExecContext, err error) bool {
	if ec.Spill() == nil {
		return false
	}
	var re *ResourceError
	return errors.As(err, &re) && re.Kind == MemoryExceeded
}

// NewGovernor returns a governor with the given row/byte budgets (zero
// disables a limit).
func NewGovernor(limitRows, limitBytes int64) *Governor {
	return resource.NewGovernor(limitRows, limitBytes)
}

// NewExecContext builds an execution context from a context and an
// optional governor; both may be nil.
var NewExecContext = resource.NewContext

// Counters accumulates execution effort across a plan. The fields are
// atomic so that a monitoring scrape or a live-progress reader can read
// them while the executing goroutine updates them. All methods are
// nil-safe: a nil *Counters counts nothing and reads zero.
type Counters struct {
	tuplesRetrieved atomic.Int64
	rowsProduced    atomic.Int64
}

// TuplesRetrieved returns the rows fetched from base tables, by full
// scans and by index lookups — the paper's Example 1 metric.
func (c *Counters) TuplesRetrieved() int64 {
	if c == nil {
		return 0
	}
	return c.tuplesRetrieved.Load()
}

// RowsProduced returns the rows emitted by the operator tree's root.
func (c *Counters) RowsProduced() int64 {
	if c == nil {
		return 0
	}
	return c.rowsProduced.Load()
}

// IncTuples counts one base-table tuple retrieval.
func (c *Counters) IncTuples() {
	if c != nil {
		c.tuplesRetrieved.Add(1)
	}
}

// IncRows counts one row emitted by the plan root.
func (c *Counters) IncRows() {
	if c != nil {
		c.rowsProduced.Add(1)
	}
}

// AddTuples counts n base-table tuple retrievals — the per-batch
// variant of IncTuples.
func (c *Counters) AddTuples(n int64) {
	if c != nil && n > 0 {
		c.tuplesRetrieved.Add(n)
	}
}

// AddRows counts n rows emitted by the plan root — the per-batch
// variant of IncRows.
func (c *Counters) AddRows(n int64) {
	if c != nil && n > 0 {
		c.rowsProduced.Add(n)
	}
}

// Iterator is the Volcano operator interface. Next returns the next row
// and true, or false at end of stream. Rows must be treated as immutable
// by consumers. Open accepts a nil ExecContext (ungoverned execution).
type Iterator interface {
	Scheme() *relation.Scheme
	Open(ec *ExecContext) error
	Next() ([]relation.Value, bool, error)
	Close() error
}

// rowBytes estimates the resident size of a row for byte budgets: the
// Value struct itself plus string payloads.
func rowBytes(row []relation.Value) int64 {
	n := int64(len(row)) * 40 // unsafe.Sizeof(relation.Value{}) on 64-bit
	for _, v := range row {
		if v.Kind() == relation.KindString {
			n += int64(len(v.AsString()))
		}
	}
	return n
}

// hold tracks one operator's outstanding governor reservation so it can
// be released exactly once, on Close or on an Open error path.
type hold struct {
	rows, bytes int64
}

// charge reserves one row against the budget on behalf of op.
func (h *hold) charge(ec *ExecContext, op string, row []relation.Value) error {
	b := rowBytes(row)
	if err := ec.Reserve(op, 1, b); err != nil {
		return err
	}
	h.rows++
	h.bytes += b
	return nil
}

// chargeN reserves rows/bytes in one governor call — the per-batch
// variant of charge that amortizes the accounting over a whole batch.
func (h *hold) chargeN(ec *ExecContext, op string, rows, bytes int64) error {
	if rows == 0 && bytes == 0 {
		return nil
	}
	if err := ec.Reserve(op, rows, bytes); err != nil {
		return err
	}
	h.rows += rows
	h.bytes += bytes
	return nil
}

// release returns the entire outstanding reservation.
func (h *hold) release(ec *ExecContext) {
	if h.rows != 0 || h.bytes != 0 {
		ec.Release(h.rows, h.bytes)
		h.rows, h.bytes = 0, 0
	}
}

// arenaChunkRows is how many row copies share one rowArena slab.
const arenaChunkRows = 1024

// rowArena amortizes retained-row copies. Under the ownership contract
// every buffered row must be a copy (the producer may reuse its
// storage), and a per-row make puts one allocation on every build-side
// row; the arena carves copies out of chunked slabs instead — one
// allocation per arenaChunkRows rows. A chunk stays alive as long as
// any row sliced from it does, so at most one chunk of slack outlives
// the buffer that retained it.
type rowArena struct {
	free []relation.Value
}

// copyRow returns a stable copy of row carved from the arena.
func (a *rowArena) copyRow(row []relation.Value) []relation.Value {
	w := len(row)
	if w == 0 {
		return []relation.Value{}
	}
	if len(a.free) < w {
		a.free = make([]relation.Value, arenaChunkRows*w)
	}
	dst := a.free[:w:w]
	copy(dst, row)
	a.free = a.free[w:]
	return dst
}

// Collect drains an iterator into a relation, updating RowsProduced.
// The iterator is always closed, including on mid-stream errors; a Close
// error surfaces when the drain itself succeeded.
func Collect(it Iterator, c *Counters) (*relation.Relation, error) {
	return CollectCtx(nil, it, c)
}

// CollectCtx is Collect under an execution context: cancellation,
// deadlines and memory budgets govern the drain. When counters are
// attached the process-wide metrics absorb the execution's effort (rows
// produced, tuples retrieved) on the way out, error or not — nested
// drains that pass nil counters (a GOJ materializing its inputs) stay
// out of the cumulative figures.
func CollectCtx(ec *ExecContext, it Iterator, c *Counters) (*relation.Relation, error) {
	if c != nil {
		t0 := c.TuplesRetrieved()
		r0 := c.RowsProduced()
		defer func() {
			obs.TuplesRetrieved.Add(c.TuplesRetrieved() - t0)
			obs.RowsProduced.Add(c.RowsProduced() - r0)
		}()
	}
	if err := it.Open(ec); err != nil {
		// The operator contract releases its own state on a failed Open;
		// Close here is a harmless idempotent safety net.
		it.Close()
		return nil, err
	}
	// The iterator must be closed on every exit — including a panic
	// unwinding out of Next (an injected fault, a bug in an operator):
	// Close releases governor charges, buffers and spill run files, so a
	// session-level recover() finds nothing leaked.
	closed := false
	defer func() {
		if !closed {
			it.Close()
		}
	}()
	out := relation.New(it.Scheme())
	if bi, ok := it.(BatchIterator); ok {
		// Batch drain: one NextBatch call and one slab copy per batch.
		for {
			b, ok, err := bi.NextBatch()
			if err != nil {
				closed = true
				it.Close()
				return nil, err
			}
			if !ok {
				break
			}
			b.appendToRelation(out)
			c.AddRows(int64(b.Len()))
		}
	} else {
		var arena rowArena
		for {
			row, ok, err := it.Next()
			if err != nil {
				closed = true
				it.Close()
				return nil, err
			}
			if !ok {
				break
			}
			// The row is only valid until the next Next; keep a copy.
			out.AppendRaw(arena.copyRow(row))
			c.IncRows()
		}
	}
	closed = true
	if err := it.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// IndexScan fetches only the rows of a table whose indexed column equals
// a constant — the access path a pushed-down equality restriction earns
// when the column has a hash index. Each fetched row counts as one
// retrieved tuple.
type IndexScan struct {
	table    *storage.Table
	index    *storage.HashIndex
	value    relation.Value
	counters *Counters
	ec       *ExecContext
	rows     []int
	pos      int
	buf      []relation.Value
}

// NewIndexScan builds an index scan on the table's hash index over col.
func NewIndexScan(t *storage.Table, col string, v relation.Value, c *Counters) (*IndexScan, error) {
	idx, ok := t.HashIndexOn(col)
	if !ok {
		return nil, fmt.Errorf("exec: table %s has no hash index on %s", t.Name(), col)
	}
	return &IndexScan{table: t, index: idx, value: v, counters: c}, nil
}

// Scheme implements Iterator.
func (s *IndexScan) Scheme() *relation.Scheme { return s.table.Scheme() }

// Open implements Iterator.
func (s *IndexScan) Open(ec *ExecContext) error {
	s.ec = ec
	if err := ec.Err("indexscan"); err != nil {
		return err
	}
	s.rows = s.index.Lookup(s.value)
	s.pos = 0
	return nil
}

// Next implements Iterator.
func (s *IndexScan) Next() ([]relation.Value, bool, error) {
	if err := s.ec.Err("indexscan"); err != nil {
		return nil, false, err
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	if s.buf == nil {
		s.buf = make([]relation.Value, s.table.Scheme().Len())
	}
	copy(s.buf, s.table.Relation().RawRow(s.rows[s.pos]))
	s.pos++
	if s.counters != nil {
		s.counters.IncTuples()
	}
	return s.buf, true, nil
}

// Close implements Iterator.
func (s *IndexScan) Close() error { return nil }

// RelationScan iterates an in-memory relation that is not a catalog
// table (e.g. a materialized intermediate); it does not count as base
// tuple retrieval.
type RelationScan struct {
	rel *relation.Relation
	ec  *ExecContext
	pos int
	buf []relation.Value
}

// NewRelationScan wraps a relation as an iterator.
func NewRelationScan(rel *relation.Relation) *RelationScan {
	return &RelationScan{rel: rel}
}

// Scheme implements Iterator.
func (s *RelationScan) Scheme() *relation.Scheme { return s.rel.Scheme() }

// Open implements Iterator.
func (s *RelationScan) Open(ec *ExecContext) error {
	s.ec = ec
	s.pos = 0
	return ec.Err("relationscan")
}

// Next implements Iterator.
func (s *RelationScan) Next() ([]relation.Value, bool, error) {
	if err := s.ec.Err("relationscan"); err != nil {
		return nil, false, err
	}
	if s.pos >= s.rel.Len() {
		return nil, false, nil
	}
	if s.buf == nil {
		s.buf = make([]relation.Value, s.rel.Scheme().Len())
	}
	copy(s.buf, s.rel.RawRow(s.pos))
	s.pos++
	return s.buf, true, nil
}

// Close implements Iterator.
func (s *RelationScan) Close() error { return nil }

// materialize drains an iterator into memory (used by blocking joins),
// charging each buffered row to the governor on behalf of op when h is
// non-nil. The child is closed on every path; on error the caller still
// owns (and must release) whatever h accumulated.
func materialize(it Iterator, ec *ExecContext, op string, h *hold) ([][]relation.Value, error) {
	if err := it.Open(ec); err != nil {
		it.Close()
		return nil, err
	}
	var rows [][]relation.Value
	var arena rowArena
	for {
		row, ok, err := it.Next()
		if err != nil {
			it.Close()
			return nil, err
		}
		if !ok {
			break
		}
		if h != nil {
			if err := h.charge(ec, op, row); err != nil {
				it.Close()
				return nil, err
			}
		}
		rows = append(rows, arena.copyRow(row))
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	return rows, nil
}

// spillRest is the spill path of an operator whose buffered input trips
// the memory budget. It writes the rows buffered so far — held, slabs of
// whole rows laid out back to back — calls release (the operator drops
// them and their charge), and streams the rest of rest into the same
// run of a new spill file, noting the degradation for op. rest is left
// open for the caller to close. On error it holds nothing.
func spillRest(ec *ExecContext, op, what string, held [][]relation.Value, release func(), rest BatchIterator) (*spill.File, *spill.Run, error) {
	f, err := spill.Create(ec, op)
	if err != nil {
		return nil, nil, err
	}
	w := f.NewWriter()
	width := rest.Scheme().Len()
	for _, slab := range held {
		for off := 0; err == nil && off < len(slab); off += width {
			err = w.Append(slab[off : off+width])
		}
	}
	release()
	for err == nil {
		b, ok, nerr := rest.NextBatch()
		if err = nerr; err != nil || !ok {
			break
		}
		for i := 0; err == nil && i < b.Len(); i++ {
			err = w.Append(b.Row(i))
		}
	}
	var run *spill.Run
	if err == nil {
		run, err = w.Finish()
	}
	if err != nil {
		w.Abort()
		f.Close()
		return nil, nil, err
	}
	obs.GovernorDegradations.Inc()
	ec.Governor().Note(op + ": memory budget trip, spilling " + what + " to disk")
	return f, run, nil
}

func concatRows(a, b []relation.Value) []relation.Value {
	out := make([]relation.Value, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}
