package exec

import (
	"fmt"

	"freejoin/internal/exec/spill"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// JoinMode selects the join-family semantics of a physical join.
type JoinMode uint8

// Join modes. LeftOuterMode preserves the left (outer/probe) input.
const (
	InnerMode JoinMode = iota
	LeftOuterMode
	SemiMode
	AntiMode
)

// String returns the mode name.
func (m JoinMode) String() string {
	switch m {
	case InnerMode:
		return "inner"
	case LeftOuterMode:
		return "leftouter"
	case SemiMode:
		return "semi"
	case AntiMode:
		return "anti"
	default:
		return fmt.Sprintf("JoinMode(%d)", uint8(m))
	}
}

// outputScheme returns a join's output scheme for a mode: sch when the
// caller has it already (the optimizer passes its plan node's, which
// must be the scheme these inputs produce), else derived from the
// inputs. Semi/anti joins output only left rows.
func outputScheme(l, r, sch *relation.Scheme, mode JoinMode) (*relation.Scheme, error) {
	switch {
	case sch != nil:
		return sch, nil
	case mode == SemiMode || mode == AntiMode:
		return l, nil
	}
	sch, err := l.Concat(r)
	if err != nil {
		return nil, fmt.Errorf("exec: join schemes overlap: %w", err)
	}
	return sch, nil
}

// bindScheme returns the scheme a join predicate binds against, the
// left input's columns then the right's: the output scheme itself,
// unless the join outputs only left rows.
func bindScheme(l, r, out *relation.Scheme, mode JoinMode) (*relation.Scheme, error) {
	if mode == SemiMode || mode == AntiMode {
		return l.Concat(r)
	}
	return out, nil
}

// joinKey appends row's join key at positions keys to buf; null reports
// a null key column (null keys never match any row).
func joinKey(buf []byte, row []relation.Value, keys []int) ([]byte, bool) {
	for _, k := range keys {
		if row[k].IsNull() {
			return buf, true
		}
		buf = relation.AppendJoinKey(buf, row[k])
	}
	return buf, false
}

// NestedLoopJoin joins on an arbitrary predicate; the right input is
// materialized once at Open. When the materialization trips the memory
// budget with spilling enabled, the inner input moves to a single spill
// run instead, and Next re-scans the run once per left row. An inner
// input that already is a run (a grace hash join's over-budget partition)
// is scanned in place.
type NestedLoopJoin struct {
	left, right Iterator
	scheme      *relation.Scheme
	bound       predicate.Bound
	mode        JoinMode

	ec      *ExecContext
	held    hold
	arena   rowArena
	rrows   [][]relation.Value
	rwidth  int
	pending [][]relation.Value

	file       *spill.File // holds rrun, unless the inner input was a run already
	rrun       *spill.Run  // inner input on disk after a budget trip
	rrd        *spill.Reader
	cur        []relation.Value // left row currently scanning rrun
	curMatched bool
	spst       SpillStats
}

// NewNestedLoopJoin builds a nested-loop join with predicate p. sch is
// the output scheme when the caller has it (nil derives it).
func NewNestedLoopJoin(left, right Iterator, p predicate.Predicate, mode JoinMode, sch *relation.Scheme) (*NestedLoopJoin, error) {
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
	return &NestedLoopJoin{left: left, right: right, scheme: sch, bound: b,
		mode: mode, rwidth: right.Scheme().Len()}, nil
}

// Scheme implements Iterator.
func (n *NestedLoopJoin) Scheme() *relation.Scheme { return n.scheme }

// Open implements Iterator.
func (n *NestedLoopJoin) Open(ec *ExecContext) error {
	n.held.release(n.ec) // re-Open without Close: drop any stale charge
	n.dropRun()          // ... and any stale spill run
	n.ec = ec
	n.rrows, n.pending, n.cur = nil, nil, nil
	n.spst = SpillStats{}
	if err := ec.Err("nestedloop"); err != nil {
		return err
	}
	if err := n.right.Open(ec); err != nil {
		n.right.Close()
		return err
	}
	for {
		row, ok, err := n.right.Next()
		if err != nil {
			n.right.Close()
			n.held.release(ec)
			return err
		}
		if !ok {
			break
		}
		if cerr := n.held.charge(ec, "nestedloop", row); cerr != nil {
			if !spillable(ec, cerr) {
				n.right.Close()
				n.held.release(ec)
				return cerr
			}
			if rs, ok := n.right.(*runScan); ok {
				// The inner input is on disk already: scan it there.
				n.rrows = nil
				n.held.release(ec)
				n.rrun = rs.run
				break
			}
			if serr := n.spillRight(ec, row); serr != nil {
				n.right.Close()
				n.held.release(ec)
				n.dropRun()
				return serr
			}
			break
		}
		n.rrows = append(n.rrows, n.arena.copyRow(row))
	}
	if err := n.right.Close(); err != nil {
		n.rrows = nil
		n.held.release(ec)
		n.dropRun()
		return err
	}
	if err := n.left.Open(ec); err != nil {
		n.rrows = nil
		n.held.release(ec)
		n.dropRun()
		return err
	}
	return nil
}

// spillRight moves the inner input to a single spill run: the rows
// buffered so far, the row whose charge tripped, then the rest of the
// right stream.
func (n *NestedLoopJoin) spillRight(ec *ExecContext, tripRow []relation.Value) (err error) {
	n.file, n.rrun, err = spillRest(ec, "nestedloop", "inner input", append(n.rrows, tripRow), func() {
		n.rrows = nil
		n.held.release(ec)
	}, n.right.Next)
	if err == nil {
		n.spst.Runs++
		n.spst.Bytes += n.rrun.Bytes
	}
	return err
}

// dropRun releases the spill run, its reader and its file, if any. A
// run scanned in place belongs to its producer and is left alone.
func (n *NestedLoopJoin) dropRun() {
	n.rrun, n.rrd = nil, nil
	n.file.Close()
	n.file = nil
}

// spilledNext is the Next loop of the spilled mode: each left row
// rewinds one sequential scan of the inner run, emitting matches one at
// a time (no pending buffer, so memory stays flat).
func (n *NestedLoopJoin) spilledNext() ([]relation.Value, bool, error) {
	for {
		if n.cur == nil {
			if err := n.ec.Err("nestedloop"); err != nil {
				return nil, false, err
			}
			lrow, ok, err := n.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			if n.rrd == nil {
				n.rrd = n.rrun.Open()
			}
			n.rrd.Rewind()
			n.cur, n.curMatched = lrow, false
		}
		rrow, ok, err := n.rrd.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			lrow := n.cur
			n.cur = nil
			switch n.mode {
			case LeftOuterMode:
				if !n.curMatched {
					return padRight(lrow, n.rwidth), true, nil
				}
			case SemiMode:
				if n.curMatched {
					return lrow, true, nil
				}
			case AntiMode:
				if !n.curMatched {
					return lrow, true, nil
				}
			}
			continue
		}
		full := concatRows(n.cur, rrow)
		if !n.bound.Holds(full) {
			continue
		}
		n.curMatched = true
		switch n.mode {
		case InnerMode, LeftOuterMode:
			return full, true, nil
		case SemiMode:
			lrow := n.cur
			n.cur = nil
			return lrow, true, nil
		case AntiMode:
			n.cur = nil
		}
	}
}

// Next implements Iterator.
func (n *NestedLoopJoin) Next() ([]relation.Value, bool, error) {
	if n.rrun != nil {
		return n.spilledNext()
	}
	for {
		if len(n.pending) > 0 {
			out := n.pending[0]
			n.pending = n.pending[1:]
			return out, true, nil
		}
		lrow, ok, err := n.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		matched := false
		for _, rrow := range n.rrows {
			full := concatRows(lrow, rrow)
			if !n.bound.Holds(full) {
				continue
			}
			matched = true
			switch n.mode {
			case InnerMode, LeftOuterMode:
				n.pending = append(n.pending, full)
			case SemiMode, AntiMode:
				// Existence decided; stop scanning.
			}
			if n.mode == SemiMode || n.mode == AntiMode {
				break
			}
		}
		switch n.mode {
		case LeftOuterMode:
			if !matched {
				return padRight(lrow, n.rwidth), true, nil
			}
		case SemiMode:
			if matched {
				return lrow, true, nil
			}
		case AntiMode:
			if !matched {
				return lrow, true, nil
			}
		}
	}
}

// BufferedRows implements Buffered.
func (n *NestedLoopJoin) BufferedRows() int { return len(n.rrows) + len(n.pending) }

// SpillInfo implements Spiller.
func (n *NestedLoopJoin) SpillInfo() SpillStats { return n.spst }

// Close implements Iterator: the materialized inner input (or its spill
// run) is released.
func (n *NestedLoopJoin) Close() error {
	n.rrows = nil
	n.pending = nil
	n.cur = nil
	n.held.release(n.ec)
	n.dropRun()
	return n.left.Close()
}

// IndexJoin drives the join from the left input and fetches matching
// inner rows through a hash index on a base table — the access path of
// Example 1's cheap plan. Each fetched inner row counts as one retrieved
// tuple.
type IndexJoin struct {
	left     Iterator
	inner    *storage.Table
	index    *storage.HashIndex
	outerKey int
	scheme   *relation.Scheme
	residual *predicate.Bound
	mode     JoinMode
	counters *Counters

	ec      *ExecContext
	pending [][]relation.Value
	iwidth  int
}

// NewIndexJoin probes inner's hash index on idxCol with the value of
// outerKey in each left row. residual may be nil; sch is the output
// scheme when the caller has it (nil derives it).
func NewIndexJoin(left Iterator, inner *storage.Table, idxCol string, outerKey relation.Attr,
	residual predicate.Predicate, mode JoinMode, sch *relation.Scheme, c *Counters) (*IndexJoin, error) {
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
	j := &IndexJoin{left: left, inner: inner, index: idx, outerKey: kp, scheme: sch,
		mode: mode, counters: c, iwidth: inner.Scheme().Len()}
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
func (j *IndexJoin) Scheme() *relation.Scheme { return j.scheme }

// Open implements Iterator.
func (j *IndexJoin) Open(ec *ExecContext) error {
	j.ec = ec
	if err := ec.Err("indexjoin"); err != nil {
		return err
	}
	j.pending = nil
	return j.left.Open(ec)
}

// Next implements Iterator.
func (j *IndexJoin) Next() ([]relation.Value, bool, error) {
	for {
		if len(j.pending) > 0 {
			out := j.pending[0]
			j.pending = j.pending[1:]
			return out, true, nil
		}
		lrow, ok, err := j.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		matched := false
		for _, pos := range j.index.Lookup(lrow[j.outerKey]) {
			irow := j.inner.Relation().RawRow(pos)
			if j.counters != nil {
				j.counters.IncTuples()
			}
			full := concatRows(lrow, irow)
			if j.residual != nil && !j.residual.Holds(full) {
				continue
			}
			matched = true
			if j.mode == InnerMode || j.mode == LeftOuterMode {
				j.pending = append(j.pending, full)
			} else {
				break
			}
		}
		switch j.mode {
		case LeftOuterMode:
			if !matched {
				return padRight(lrow, j.iwidth), true, nil
			}
		case SemiMode:
			if matched {
				return lrow, true, nil
			}
		case AntiMode:
			if !matched {
				return lrow, true, nil
			}
		}
	}
}

// BufferedRows implements Buffered (only the per-probe match buffer).
func (j *IndexJoin) BufferedRows() int { return len(j.pending) }

// Close implements Iterator.
func (j *IndexJoin) Close() error { j.pending = nil; return j.left.Close() }
