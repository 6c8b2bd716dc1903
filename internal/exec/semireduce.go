package exec

import (
	"fmt"

	"freejoin/internal/exec/spill"
	"freejoin/internal/obs"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// SemiReduce filters its left input down to the rows with at least one
// match in the right input — the physical semijoin step of the
// Yannakakis full-reducer program. It emits left rows unchanged (the
// output scheme is the left scheme), so a chain of SemiReduce operators
// composes into a reducer without widening any tuple.
//
// For a pure equi predicate the right input collapses into a hash
// filter of distinct join keys (much smaller than a hash join's build
// table: dangling probe rows cost one lookup, duplicate build keys cost
// nothing). Any other predicate materializes the right input and scans
// it per left row, stopping at the first match.
//
// A memory-budget trip while building the filter degrades gracefully
// when spilling is enabled: the right input moves to a single spill run
// and Next re-scans the run per left row (memory stays flat). Without
// spill the typed resource error propagates.
type SemiReduce struct {
	left, right Iterator
	pred        predicate.Predicate
	bound       predicate.Bound // over left ++ right, for scan and spilled modes
	equi        bool
	lkeys       []int
	rkeys       []int

	ec    *ExecContext
	held  hold
	arena rowArena
	keys  map[string]struct{} // equi mode: distinct right-side join keys
	rrows [][]relation.Value  // scan mode: materialized right input
	kbuf  []byte

	file *spill.File // holds rrun
	rrun *spill.Run  // right input on disk after a budget trip
	rrd  *spill.Reader
	cur  []relation.Value // left row currently scanning rrun

	spst SpillStats
}

// NewSemiReduce builds a semijoin filter left ⋉ right on p.
func NewSemiReduce(left, right Iterator, p predicate.Predicate) (*SemiReduce, error) {
	full, err := left.Scheme().Concat(right.Scheme())
	if err != nil {
		return nil, fmt.Errorf("exec: semireduce schemes overlap: %w", err)
	}
	b, err := predicate.Bind(p, full)
	if err != nil {
		return nil, fmt.Errorf("exec: semireduce predicate: %w", err)
	}
	s := &SemiReduce{left: left, right: right, pred: p, bound: b}
	if la, ra, ok := predicate.EquiParts(p, left.Scheme(), right.Scheme()); ok {
		s.equi = true
		for _, a := range la {
			s.lkeys = append(s.lkeys, left.Scheme().IndexOf(a))
		}
		for _, a := range ra {
			s.rkeys = append(s.rkeys, right.Scheme().IndexOf(a))
		}
	}
	return s, nil
}

// Scheme implements Iterator: semijoins emit left rows unchanged.
func (s *SemiReduce) Scheme() *relation.Scheme { return s.left.Scheme() }

// Open implements Iterator: the right input is drained into the key
// filter (equi) or a row buffer (otherwise), then the left input opens.
func (s *SemiReduce) Open(ec *ExecContext) error {
	s.held.release(s.ec) // re-Open without Close: drop any stale charge
	s.dropRun()          // ... and any stale spill run
	s.ec = ec
	s.keys, s.rrows, s.cur = nil, nil, nil
	s.spst = SpillStats{}
	if err := ec.Err("semireduce"); err != nil {
		return err
	}
	if err := s.right.Open(ec); err != nil {
		s.right.Close()
		return err
	}
	if s.equi {
		s.keys = make(map[string]struct{})
	}
	for {
		row, ok, err := s.right.Next()
		if err != nil {
			s.right.Close()
			s.held.release(ec)
			return err
		}
		if !ok {
			break
		}
		if s.equi {
			key, null := joinKey(s.kbuf[:0], row, s.rkeys)
			s.kbuf = key[:0]
			if null {
				continue // null keys never match; the filter can skip them
			}
			if _, dup := s.keys[string(key)]; dup {
				continue
			}
			if cerr := s.held.charge(ec, "semireduce", row); cerr != nil {
				if !spillable(ec, cerr) {
					s.right.Close()
					s.held.release(ec)
					return cerr
				}
				if serr := s.spillRight(ec, row); serr != nil {
					s.right.Close()
					s.held.release(ec)
					s.dropRun()
					return serr
				}
				break
			}
			s.keys[string(key)] = struct{}{}
			continue
		}
		if cerr := s.held.charge(ec, "semireduce", row); cerr != nil {
			if !spillable(ec, cerr) {
				s.right.Close()
				s.held.release(ec)
				return cerr
			}
			if serr := s.spillRight(ec, row); serr != nil {
				s.right.Close()
				s.held.release(ec)
				s.dropRun()
				return serr
			}
			break
		}
		s.rrows = append(s.rrows, s.arena.copyRow(row))
	}
	if err := s.right.Close(); err != nil {
		s.keys, s.rrows = nil, nil
		s.held.release(ec)
		s.dropRun()
		return err
	}
	if err := s.left.Open(ec); err != nil {
		s.keys, s.rrows = nil, nil
		s.held.release(ec)
		s.dropRun()
		return err
	}
	return nil
}

// spillRight moves the right input to a single spill run: the rows
// materialized so far (scan mode), the row whose charge tripped, and the
// rest of the right stream. Equi mode buffered only distinct keys, which
// stay behind as a fast pre-check of the run scan.
func (s *SemiReduce) spillRight(ec *ExecContext, tripRow []relation.Value) (err error) {
	s.file, s.rrun, err = spillRest(ec, "semireduce", "filter input", append(s.rrows, tripRow), func() {
		s.rrows = nil
		s.held.release(ec)
	}, s.right.Next)
	if err == nil {
		s.spst.Runs++
		s.spst.Bytes += s.rrun.Bytes
	}
	return err
}

// dropRun releases the spill run, its reader and its file, if any.
func (s *SemiReduce) dropRun() {
	s.rrun, s.rrd = nil, nil
	s.file.Close()
	s.file = nil
}

// Next implements Iterator.
func (s *SemiReduce) Next() ([]relation.Value, bool, error) {
	if s.rrun != nil {
		return s.spilledNext()
	}
	for {
		lrow, ok, err := s.left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		obs.SemiReduceInputRows.Inc()
		match := false
		if s.equi {
			key, null := joinKey(s.kbuf[:0], lrow, s.lkeys)
			s.kbuf = key[:0]
			if !null {
				_, match = s.keys[string(key)]
			}
		} else {
			for _, rrow := range s.rrows {
				if s.bound.Holds(concatRows(lrow, rrow)) {
					match = true
					break
				}
			}
		}
		if match {
			obs.SemiReduceOutputRows.Inc()
			return lrow, true, nil
		}
	}
}

// spilledNext is the Next loop of the spilled mode: each left row first
// consults the partial in-memory filter (equi mode), then scans the
// run, emitting the row on the first predicate match. No pending
// buffer, so memory stays flat.
func (s *SemiReduce) spilledNext() ([]relation.Value, bool, error) {
	for {
		if s.cur == nil {
			if err := s.ec.Err("semireduce"); err != nil {
				return nil, false, err
			}
			lrow, ok, err := s.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			obs.SemiReduceInputRows.Inc()
			if s.equi && len(s.keys) > 0 {
				key, null := joinKey(s.kbuf[:0], lrow, s.lkeys)
				s.kbuf = key[:0]
				if !null {
					if _, hit := s.keys[string(key)]; hit {
						obs.SemiReduceOutputRows.Inc()
						return lrow, true, nil
					}
				}
			}
			if s.rrd == nil {
				s.rrd = s.rrun.Open()
			}
			s.rrd.Rewind()
			s.cur = lrow
		}
		rrow, ok, err := s.rrd.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.cur = nil
			continue
		}
		if s.bound.Holds(concatRows(s.cur, rrow)) {
			lrow := s.cur
			s.cur = nil
			obs.SemiReduceOutputRows.Inc()
			return lrow, true, nil
		}
	}
}

// BufferedRows implements Buffered: the filter keys and materialized
// rows currently held.
func (s *SemiReduce) BufferedRows() int { return len(s.keys) + len(s.rrows) }

// SpillInfo implements Spiller.
func (s *SemiReduce) SpillInfo() SpillStats { return s.spst }

// Close implements Iterator: the filter (or its spill run) is released.
func (s *SemiReduce) Close() error {
	s.keys = nil
	s.rrows = nil
	s.cur = nil
	s.held.release(s.ec)
	s.dropRun()
	return s.left.Close()
}
