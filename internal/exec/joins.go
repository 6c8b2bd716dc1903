package exec

import (
	"fmt"

	"freejoin/internal/relation"
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
