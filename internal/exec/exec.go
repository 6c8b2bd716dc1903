// Package exec is the physical execution engine: vectorized iterators
// in the manner of MonetDB/X100 over the storage layer — every operator
// hands rows up a Batch at a time through one interface, Iterator — with
// scan/index-lookup accounting. The counter of tuples retrieved from
// base tables is the cost measure of the paper's Example 1 ("the first
// expression retrieves 2·10⁷+1 tuples, and the second retrieves only
// 3").
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
// and released any buffers and governor charges it acquired; after
// NextBatch returns an error the operator never calls a child's
// NextBatch again; Close is idempotent and always releases buffers and
// charges.
package exec

import (
	"errors"
	"sync/atomic"

	"freejoin/internal/exec/spill"
	"freejoin/internal/obs"
	"freejoin/internal/relation"
	"freejoin/internal/resource"
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

// AddTuples counts n base-table tuple retrievals.
func (c *Counters) AddTuples(n int64) {
	if c != nil && n > 0 {
		c.tuplesRetrieved.Add(n)
	}
}

// AddRows counts n rows emitted by the plan root.
func (c *Counters) AddRows(n int64) {
	if c != nil && n > 0 {
		c.rowsProduced.Add(n)
	}
}

// Iterator is the operator interface, vectorized as in MonetDB/X100:
// NextBatch returns the next batch of rows and true, or false at end of
// stream. A batch is owned by its producer and valid until the caller's
// next NextBatch or Close on that producer (see Batch). Open accepts a
// nil ExecContext (ungoverned execution).
type Iterator interface {
	Scheme() *relation.Scheme
	Open(ec *ExecContext) error
	NextBatch() (*Batch, bool, error)
	Close() error
}

// valueSize is unsafe.Sizeof(relation.Value{}) on 64-bit.
const valueSize = 40

// rowBytes estimates the resident size of values (a row, or a batch's
// slab of rows) for byte budgets: the Value structs themselves plus
// string payloads.
func rowBytes(vals []relation.Value) int64 {
	n := int64(len(vals)) * valueSize
	for i := range vals {
		if vals[i].Kind() == relation.KindString {
			n += int64(len(vals[i].AsString()))
		}
	}
	return n
}

// hold tracks one operator's outstanding governor reservation so it can
// be released exactly once, on Close or on an Open error path.
type hold struct {
	rows, bytes int64
}

// chargeN reserves rows/bytes in one governor call, amortizing the
// accounting over a whole batch.
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
	// unwinding out of NextBatch (an injected fault, a bug in an operator):
	// Close releases governor charges, buffers and spill run files, so a
	// session-level recover() finds nothing leaked.
	closed := false
	defer func() {
		if !closed {
			it.Close()
		}
	}()
	// One NextBatch call and one pooled slab copy per batch; Recycle
	// gives the slabs back.
	var col collected
	for {
		b, ok, err := it.NextBatch()
		if err != nil {
			closed = true
			it.Close()
			col.recycle()
			return nil, err
		}
		if !ok {
			break
		}
		col.add(b)
		c.AddRows(int64(b.Len()))
	}
	out := col.result(it.Scheme())
	closed = true
	if err := it.Close(); err != nil {
		Recycle(out)
		return nil, err
	}
	return out, nil
}

// spillRest is the spill path of an operator whose buffered input trips
// the memory budget. It writes the rows buffered so far — held, slabs of
// whole rows laid out back to back — calls release (the operator drops
// them and their charge), and streams the rest of rest into the same
// run of a new spill file, noting the degradation for op. rest is left
// open for the caller to close. On error it holds nothing.
func spillRest(ec *ExecContext, op, what string, held [][]relation.Value, release func(), rest Iterator) (*spill.File, *spill.Run, error) {
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
