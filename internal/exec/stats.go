package exec

import (
	"errors"
	"time"

	"freejoin/internal/relation"
)

// Stats accumulates per-operator runtime measurements — the observability
// counterpart of the paper's Example 1 argument. Where Counters is one
// global tally per execution, Stats is collected per operator by the
// Instrument wrapper, so EXPLAIN ANALYZE can show where inside a plan the
// effort (tuples, rows, time, memory) was actually spent.
//
// TuplesRetrieved and WallTime are inclusive of the operator's subtree:
// a parent's NextBatch covers the child NextBatch calls it triggers.
// Exclusive ("self") tuples are derived by StatsNode.SelfTuples.
type Stats struct {
	// Opens counts Open calls (re-opens included).
	Opens int64
	// NextCalls counts NextBatch calls — batches, not rows — including
	// the final end-of-stream one.
	NextCalls int64
	// RowsOut counts rows this operator emitted.
	RowsOut int64
	// TuplesRetrieved counts base-table tuples fetched by this operator's
	// subtree while it ran (scans, index scans and index-join lookups).
	TuplesRetrieved int64
	// PeakBuffered is the largest number of rows the operator held
	// materialized at once (hash tables, join buffers); zero for
	// streaming operators.
	PeakBuffered int64
	// WallTime is the total time spent inside Open and NextBatch,
	// children included.
	WallTime time.Duration
	// Spill counts the operator's spill-to-disk activity (zero unless a
	// budget trip moved it to the external path).
	Spill SpillStats
}

// SpillStats counts one operator's spill-to-disk activity: run files
// written, grace-hash partitions created and bytes encoded to disk.
type SpillStats struct {
	Runs       int64
	Partitions int64
	Bytes      int64
}

// Spilled reports whether any spill activity happened.
func (s SpillStats) Spilled() bool { return s.Runs > 0 || s.Partitions > 0 }

// Spiller is implemented by operators with an external-memory path
// (grace hash join, spilling nested-loop join, semijoin reduction);
// SpillInfo reports the activity of the current/latest Open cycle so
// instrumentation can surface it in EXPLAIN ANALYZE.
type Spiller interface {
	SpillInfo() SpillStats
}

// StatsNode is one operator's entry in an instrumented plan tree: a
// display label, the optimizer's estimates (copied in at build time), the
// collected runtime stats, and the child entries. The tree parallels the
// physical operator tree.
type StatsNode struct {
	Label string
	// EstRows and EstCost are the optimizer's estimates for this node;
	// EstRows < 0 means no estimate is attached (a shared spool's
	// reader, the one node without a plan node of its own).
	EstRows float64
	EstCost float64

	Stats    Stats
	Children []*StatsNode

	// Err is the first error this operator surfaced (from Open or
	// NextBatch),
	// so an aborted EXPLAIN ANALYZE can point at the failing node.
	Err error
}

// RowsIn returns the rows this operator pulled from its instrumented
// children (the sum of their RowsOut).
func (n *StatsNode) RowsIn() int64 {
	var in int64
	for _, c := range n.Children {
		in += c.Stats.RowsOut
	}
	return in
}

// SelfTuples returns the base tuples retrieved by this operator alone,
// excluding its children's share of the inclusive count. An index join's
// lookups, for example, are attributed to the join, not to its leaves.
func (n *StatsNode) SelfTuples() int64 {
	t := n.Stats.TuplesRetrieved
	for _, c := range n.Children {
		t -= c.Stats.TuplesRetrieved
	}
	return t
}

// Executed reports whether the operator ran at all. An index join's inner
// table, for instance, appears in the plan but is never opened as an
// iterator — its tuples are fetched by the parent through the index.
func (n *StatsNode) Executed() bool { return n.Stats.Opens > 0 || n.Stats.NextCalls > 0 }

// Walk visits the node and every descendant in pre-order.
func (n *StatsNode) Walk(f func(depth int, n *StatsNode)) { n.walk(0, f) }

func (n *StatsNode) walk(depth int, f func(depth int, n *StatsNode)) {
	f(depth, n)
	for _, c := range n.Children {
		c.walk(depth+1, f)
	}
}

// Buffered is implemented by operators that materialize rows (hash and
// nested-loop joins, semijoin reduction); BufferedRows reports how many
// rows are currently held so the instrumentation can track peak memory
// pressure, and the iterator contract can assert buffers are released
// on Close.
type Buffered interface {
	BufferedRows() int
}

// Instrumented wraps an iterator and records per-call statistics into a
// StatsNode. Instrumentation is strictly opt-in: an uninstrumented plan
// contains no wrappers and pays no cost (see BenchmarkStatsOverhead).
type Instrumented struct {
	child    Iterator
	buffered Buffered // child, if it materializes rows; else nil
	spiller  Spiller  // child, if it can spill to disk; else nil
	counters *Counters
	node     *StatsNode
}

// Instrument wraps child, attributing base-tuple retrieval deltas of c
// (which may be nil) to the new node. children are the stats nodes of the
// operator's already-instrumented inputs.
func Instrument(child Iterator, label string, c *Counters, children ...*StatsNode) *Instrumented {
	b, _ := child.(Buffered)
	sp, _ := child.(Spiller)
	return &Instrumented{
		child:    child,
		buffered: b,
		spiller:  sp,
		counters: c,
		node:     &StatsNode{Label: label, EstRows: -1, EstCost: -1, Children: children},
	}
}

// Node returns the stats entry the wrapper records into.
func (w *Instrumented) Node() *StatsNode { return w.node }

// Scheme implements Iterator.
func (w *Instrumented) Scheme() *relation.Scheme { return w.child.Scheme() }

// Open implements Iterator. Re-opening resets the node's per-run
// counters (and SpillStats) instead of accumulating into them: after a
// governor trip re-runs a subtree, or a fallback re-opens a child, the
// stats describe the cycle that actually produced the output, not the
// sum of the aborted attempt and the retry. Opens itself stays
// cumulative — it counts the cycles.
func (w *Instrumented) Open(ec *ExecContext) error {
	w.node.Stats = Stats{Opens: w.node.Stats.Opens}
	start := time.Now()
	var t0 int64
	if w.counters != nil {
		t0 = w.counters.TuplesRetrieved()
	}
	err := w.child.Open(ec)
	if w.counters != nil {
		w.node.Stats.TuplesRetrieved += w.counters.TuplesRetrieved() - t0
	}
	w.node.Stats.WallTime += time.Since(start)
	w.node.Stats.Opens++
	w.observeBuffer()
	return w.noteErr(err)
}

// NextBatch implements Iterator, recording one NextCalls tick and
// RowsOut += Len per batch, so instrumentation adds no per-row cost.
func (w *Instrumented) NextBatch() (*Batch, bool, error) {
	start := time.Now()
	var t0 int64
	if w.counters != nil {
		t0 = w.counters.TuplesRetrieved()
	}
	b, ok, err := w.child.NextBatch()
	if w.counters != nil {
		w.node.Stats.TuplesRetrieved += w.counters.TuplesRetrieved() - t0
	}
	w.node.Stats.WallTime += time.Since(start)
	w.node.Stats.NextCalls++
	if ok {
		w.node.Stats.RowsOut += int64(b.Len())
	}
	if w.buffered != nil || w.spiller != nil {
		w.observeBuffer()
	}
	return b, ok, w.noteErr(err)
}

// noteErr records the first error crossing this wrapper and, for typed
// resource errors, stamps the plan-node label of the tripping operator.
// The innermost wrapper the error crosses wins, so the label names the
// operator that actually tripped, not an ancestor.
func (w *Instrumented) noteErr(err error) error {
	if err == nil {
		return nil
	}
	if w.node.Err == nil {
		w.node.Err = err
	}
	var re *ResourceError
	if errors.As(err, &re) && re.Node == "" {
		re.Node = w.node.Label
	}
	return err
}

// Close implements Iterator.
func (w *Instrumented) Close() error { return w.child.Close() }

func (w *Instrumented) observeBuffer() {
	if w.buffered != nil {
		if n := int64(w.buffered.BufferedRows()); n > w.node.Stats.PeakBuffered {
			w.node.Stats.PeakBuffered = n
		}
	}
	if w.spiller != nil {
		w.node.Stats.Spill = w.spiller.SpillInfo()
	}
}
