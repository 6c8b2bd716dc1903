package exec

import (
	"freejoin/internal/exec/spill"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Spool evaluates a subplan that several plan nodes consume (a
// Yannakakis reduced relation feeds later reducer steps and the join
// phase) once. The first reader's Open drains the child into one
// relation, charged to the governor as op "spool"; each reader scans it
// with its own BatchScan, which copies the rows out, because consumers
// compact their batches in place. The rows are dropped once all readers
// are closed, and an Open after that refills. A reader counts as closed
// until it opens again, so a consumer re-opening a closed reader (a
// semijoin filter continuing on a nested-loop join after a memory trip)
// may cost a refill, never a leak.
//
// A memory trip during the drain with spill on moves the rows to one
// run of a spill file that each reader scans with its own runScan; with
// spill off the typed MemoryExceeded propagates. A failed fill holds
// nothing, and every reader's Open returns its error until all close.
type Spool struct {
	child   Iterator
	size    int
	rs      []*SpoolReader // all created before any opens
	ec      *ExecContext   // the fill's
	filled  bool
	err     error // the fill's, served to every reader
	closed  int   // readers closed and not re-opened
	held    hold
	table   *storage.Table // the rows, in memory
	file    *spill.File    // holds run
	run     *spill.Run     // the rows, after a memory trip
	sub, at *StatsNode     // the child's stats entry and the reader entry it hangs under
}

// NewSpool returns a spool over child; size is the batch size of the
// readers (<= 0: DefaultBatchSize).
func NewSpool(child Iterator, size int) *Spool {
	return &Spool{child: child, size: resolveBatchSize(size)}
}

// Reader returns a new consumer of the spool. All readers must exist
// before the first opens: the last of them to close drops the rows.
func (s *Spool) Reader() *SpoolReader {
	r := &SpoolReader{s: s}
	s.rs = append(s.rs, r)
	return r
}

// WithSpools returns root with a Close that also closes every reader of
// spools: operators close only the children they opened, so a failed
// execution can leave a reader unreached.
func WithSpools(root Iterator, spools []*Spool) Iterator {
	return &spoolScope{Iterator: root, spools: spools}
}

type spoolScope struct {
	Iterator
	spools []*Spool
}

func (sc *spoolScope) Close() error {
	err := sc.Iterator.Close()
	for _, s := range sc.spools {
		for _, r := range s.rs {
			r.Close()
		}
	}
	return err
}

// fill drains the child into memory, or into a spill run on a memory
// trip; on error it holds nothing.
func (s *Spool) fill(ec *ExecContext, r *SpoolReader) error {
	s.ec, s.filled = ec, true
	if s.sub != nil && r.node != nil && s.at != r.node {
		// The drain's tuples and time land in the filling reader's
		// inclusive stats, so the child's entry moves under it.
		s.at.Children, r.node.Children, s.at = nil, []*StatsNode{s.sub}, r.node
	}
	if err := s.child.Open(ec); err != nil {
		s.child.Close()
		return err
	}
	var col collected
	var err error
	for {
		b, ok, nerr := s.child.NextBatch()
		if err = nerr; err != nil || !ok {
			break
		}
		col.add(b)
		if err = s.held.chargeN(ec, "spool", int64(b.Len()), b.Bytes()); err != nil {
			if spillable(ec, err) {
				s.file, s.run, err = spillRest(ec, "spool", "shared rows", col.slabs,
					func() { s.held.release(ec) }, s.child)
			}
			break
		}
	}
	if cerr := s.child.Close(); err == nil {
		err = cerr
	}
	if err != nil || s.run != nil {
		col.recycle()
	} else {
		s.table = storage.NewTable("spool", col.result(s.child.Scheme()))
	}
	if err != nil {
		s.release()
	}
	return err
}

// release drops the rows, their charge and the spill file. Every reader
// is closed by then, and a reader's BatchScan copies the rows out, so
// nothing reads the rows' slabs any more.
func (s *Spool) release() {
	s.held.release(s.ec)
	if s.table != nil {
		Recycle(s.table.Relation())
	}
	s.table, s.run = nil, nil
	s.file.Close()
	s.file = nil
}

// SpoolReader is one consumer of a Spool.
type SpoolReader struct {
	s      *Spool
	src    Iterator // a BatchScan of the rows, or a runScan of their run
	closed bool
	node   *StatsNode
}

// Instrument wraps the reader in a stats collector (see Instrument).
// sub, the spooled child's stats entry, hangs under the reader that
// last filled the spool (the first instrumented one until then): once
// in the tree.
func (r *SpoolReader) Instrument(label string, c *Counters, sub *StatsNode) (Iterator, *StatsNode) {
	w := Instrument(r, label, c)
	n := w.Node()
	r.node = n
	if r.s.sub == nil {
		r.s.sub, r.s.at, n.Children = sub, n, []*StatsNode{sub}
	}
	return w, n
}

// Scheme implements Iterator.
func (r *SpoolReader) Scheme() *relation.Scheme { return r.s.child.Scheme() }

// Open implements Iterator: the first reader of a fill drains the child.
func (r *SpoolReader) Open(ec *ExecContext) error {
	s := r.s
	r.closeSrc()
	if r.closed {
		r.closed = false
		s.closed--
	}
	err := ec.Err("spool")
	if err == nil && !s.filled {
		s.err = s.fill(ec, r)
	}
	if err == nil {
		err = s.err
	}
	if err == nil {
		if s.run != nil {
			r.src = &runScan{run: s.run, scheme: r.Scheme(), size: s.size}
		} else {
			r.src = NewBatchScan(s.table, nil, s.size)
		}
		err = r.src.Open(ec)
	}
	if err != nil {
		r.Close()
	}
	return err
}

// NextBatch implements Iterator.
func (r *SpoolReader) NextBatch() (*Batch, bool, error) { return r.src.NextBatch() }

func (r *SpoolReader) closeSrc() {
	if r.src != nil {
		r.src.Close()
		r.src = nil
	}
}

// Close implements Iterator. The last reader to close drops the rows.
func (r *SpoolReader) Close() error {
	r.closeSrc()
	if s := r.s; !r.closed {
		r.closed = true
		if s.closed++; s.closed == len(s.rs) && s.filled {
			s.release()
			s.filled, s.err = false, nil
		}
	}
	return nil
}
