package exec

import (
	"fmt"

	"freejoin/internal/exec/spill"
	"freejoin/internal/obs"
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

// MergeJoin equi-joins two inputs sorted on their key columns. Inner and
// left-outer modes are supported; duplicates on both sides produce the
// full cross product of each matching group.
//
// Both inputs stream: only the current right-side equal-key group is
// buffered (and charged to the governor). A group that trips the memory
// budget with spilling enabled moves to a spill run, re-scanned once
// per matching left row.
type MergeJoin struct {
	left, right Iterator
	scheme      *relation.Scheme
	lkey, rkey  int
	mode        JoinMode
	rwidth      int

	ec      *ExecContext
	held    hold
	arena   rowArena
	group   [][]relation.Value // current right equal-key group (charged)
	gkey    relation.Value     // group key, valid while hasGroup()
	file    *spill.File        // opened at the first spilled group
	grun    *spill.Run         // group on disk after a budget trip
	lcur    []relation.Value   // left row currently streaming grun matches
	grd     *spill.Reader
	rnext   []relation.Value // lookahead right row beyond the group
	rdone   bool
	pending [][]relation.Value
	spst    SpillStats
}

// NewMergeJoin joins inputs that must already be sorted ascending on
// leftKey / rightKey (wrap with NewSort otherwise).
func NewMergeJoin(left, right Iterator, leftKey, rightKey relation.Attr, mode JoinMode) (*MergeJoin, error) {
	if mode != InnerMode && mode != LeftOuterMode {
		return nil, fmt.Errorf("exec: merge join supports inner and leftouter modes, got %s", mode)
	}
	lk := left.Scheme().IndexOf(leftKey)
	rk := right.Scheme().IndexOf(rightKey)
	if lk < 0 || rk < 0 {
		return nil, fmt.Errorf("exec: merge join keys missing from schemes")
	}
	sch, err := outputScheme(left.Scheme(), right.Scheme(), nil, mode)
	if err != nil {
		return nil, err
	}
	return &MergeJoin{left: left, right: right, scheme: sch, lkey: lk, rkey: rk,
		mode: mode, rwidth: right.Scheme().Len()}, nil
}

// Scheme implements Iterator.
func (m *MergeJoin) Scheme() *relation.Scheme { return m.scheme }

// Open implements Iterator: both inputs are opened; nothing is buffered
// until Next reaches the first right-side group.
func (m *MergeJoin) Open(ec *ExecContext) error {
	m.held.release(m.ec) // re-Open without Close: drop any stale charge
	m.dropGroupRun()     // ... and any stale spilled group
	m.file.Close()
	m.file = nil
	m.ec = ec
	m.group, m.pending, m.rnext, m.lcur = nil, nil, nil, nil
	m.rdone = false
	m.spst = SpillStats{}
	if err := ec.Err("mergejoin"); err != nil {
		return err
	}
	if err := m.left.Open(ec); err != nil {
		m.left.Close()
		return err
	}
	if err := m.right.Open(ec); err != nil {
		m.left.Close()
		m.right.Close()
		return err
	}
	return nil
}

// hasGroup reports whether a right-side group (in memory or spilled) is
// current.
func (m *MergeJoin) hasGroup() bool { return len(m.group) > 0 || m.grun != nil }

// needAdvance reports whether the right side must move forward to reach
// a group with key >= lv.
func (m *MergeJoin) needAdvance(lv relation.Value) bool {
	if m.hasGroup() {
		return m.gkey.Compare(lv) < 0
	}
	return !m.rdone || m.rnext != nil
}

// advanceGroup discards the current group and buffers the next run of
// equal-key right rows (null keys skipped: they never match). A budget
// trip mid-group spills the whole group to disk.
func (m *MergeJoin) advanceGroup() error {
	m.group = nil
	m.held.release(m.ec) // only the group is charged
	m.dropGroupRun()
	for {
		var row []relation.Value
		if m.rnext != nil {
			row, m.rnext = m.rnext, nil
		} else if m.rdone {
			return nil
		} else {
			var ok bool
			var err error
			row, ok, err = m.right.Next()
			if err != nil {
				return err
			}
			if !ok {
				m.rdone = true
				return nil
			}
		}
		rv := row[m.rkey]
		if rv.IsNull() {
			continue
		}
		if len(m.group) == 0 {
			m.gkey = rv
		} else if m.gkey.Compare(rv) != 0 {
			// The lookahead row outlives the child's next Next: copy.
			m.rnext = m.arena.copyRow(row)
			return nil
		}
		if err := m.held.charge(m.ec, "mergejoin", row); err != nil {
			if !spillable(m.ec, err) {
				return err
			}
			return m.spillGroup(row)
		}
		m.group = append(m.group, m.arena.copyRow(row))
	}
}

// spillGroup moves the current group — the rows buffered so far, the
// row whose charge tripped, and the rest of the equal-key run — to a
// spill run.
func (m *MergeJoin) spillGroup(tripRow []relation.Value) error {
	if m.file == nil {
		f, err := spill.Create(m.ec, "mergejoin")
		if err != nil {
			return err
		}
		m.file = f
	}
	w := m.file.NewWriter()
	for _, row := range m.group {
		if werr := w.Append(row); werr != nil {
			w.Abort()
			return werr
		}
	}
	if werr := w.Append(tripRow); werr != nil {
		w.Abort()
		return werr
	}
	m.group = nil
	m.held.release(m.ec)
	for {
		var row []relation.Value
		if m.rnext != nil {
			row, m.rnext = m.rnext, nil
		} else if m.rdone {
			break
		} else {
			var ok bool
			var nerr error
			row, ok, nerr = m.right.Next()
			if nerr != nil {
				w.Abort()
				return nerr
			}
			if !ok {
				m.rdone = true
				break
			}
		}
		rv := row[m.rkey]
		if rv.IsNull() {
			continue
		}
		if m.gkey.Compare(rv) != 0 {
			m.rnext = m.arena.copyRow(row)
			break
		}
		if werr := w.Append(row); werr != nil {
			w.Abort()
			return werr
		}
	}
	run, ferr := w.Finish()
	if ferr != nil {
		return ferr
	}
	m.grun = run
	m.spst.Runs++
	m.spst.Bytes += run.Bytes
	obs.GovernorDegradations.Inc()
	m.ec.Governor().Note("mergejoin: memory budget trip, spilling right-side group to disk")
	return nil
}

// dropGroupRun frees the spilled group, if any, for the next one to
// reuse its space in the file.
func (m *MergeJoin) dropGroupRun() {
	m.grun.Drop()
	m.grun, m.grd = nil, nil
}

// Next implements Iterator.
func (m *MergeJoin) Next() ([]relation.Value, bool, error) {
	for {
		if len(m.pending) > 0 {
			out := m.pending[0]
			m.pending = m.pending[1:]
			return out, true, nil
		}
		// Streaming the current left row against a spilled group.
		if m.grd != nil {
			rrow, ok, err := m.grd.Next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				return concatRows(m.lcur, rrow), true, nil
			}
			m.grd, m.lcur = nil, nil
			continue
		}
		lrow, ok, err := m.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		lv := lrow[m.lkey]
		if lv.IsNull() {
			// Null keys never match.
			if m.mode == LeftOuterMode {
				return padRight(lrow, m.rwidth), true, nil
			}
			continue
		}
		// Advance right-side groups until the group key reaches lv.
		for m.needAdvance(lv) {
			if err := m.advanceGroup(); err != nil {
				return nil, false, err
			}
		}
		if m.hasGroup() && m.gkey.Compare(lv) == 0 {
			if m.grun != nil {
				m.lcur, m.grd = lrow, m.grun.Open()
				continue
			}
			for _, rrow := range m.group {
				m.pending = append(m.pending, concatRows(lrow, rrow))
			}
			continue
		}
		if m.mode == LeftOuterMode {
			return padRight(lrow, m.rwidth), true, nil
		}
	}
}

// BufferedRows implements Buffered.
func (m *MergeJoin) BufferedRows() int { return len(m.group) + len(m.pending) }

// SpillInfo implements Spiller.
func (m *MergeJoin) SpillInfo() SpillStats { return m.spst }

// Close implements Iterator: the group buffer (and its governor charge),
// any spilled group, and both children are released.
func (m *MergeJoin) Close() error {
	m.group, m.pending, m.rnext, m.lcur = nil, nil, nil, nil
	m.held.release(m.ec)
	m.dropGroupRun()
	m.file.Close()
	m.file = nil
	m.rdone = false
	err := m.left.Close()
	if rerr := m.right.Close(); err == nil {
		err = rerr
	}
	return err
}
