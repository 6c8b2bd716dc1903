package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"freejoin/internal/expr"
	"freejoin/internal/parse"
)

var errWrongAnswer = errors.New("wrong answer")

// oracle checks, off the clock, every distinct query of the cycle: the
// server's rendered answer must be the bag the reference algebra
// (expr.Eval over internal/algebra) computes from the same table
// literals the server was sent. It records each query's row count, which
// the timed loop then checks on every response. It also returns the
// planner strategy the server reports per template (from "explain").
func (e *env) oracle() (strategies map[string]string, err error) {
	db := expr.DB{}
	for _, t := range e.cat.tables {
		name, rel, err := parse.TableLiteral(strings.TrimPrefix(t.literal(), "table "))
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		db[name] = rel
	}
	strategies = map[string]string{}
	checked := map[string]int64{} // key -> row count; a cycle may repeat a query
	for i := range e.queries {
		q := &e.queries[i]
		if rows, ok := checked[q.key]; ok {
			q.wantRows = rows
			continue
		}
		oc := e.conns[e.w.clients][q.session]
		r, err := oc.mustOK(q.line)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		got, err := parseRendered(r.Output)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", q.tpl, err)
		}
		node, err := parse.Expr(exprOf(q.line))
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		ref, err := node.Eval(db)
		if err != nil {
			return nil, fmt.Errorf("oracle: reference evaluation of %s: %w", q.tpl, err)
		}
		// Render the reference rows in the server's column order.
		pos := make([]int, len(got.header))
		for c, h := range got.header {
			pos[c] = -1
			for j := 0; j < ref.Scheme().Len(); j++ {
				if ref.Scheme().At(j).String() == h {
					pos[c] = j
				}
			}
			if pos[c] < 0 || ref.Scheme().Len() != len(got.header) {
				return nil, fmt.Errorf("oracle: %s: server columns %v, reference scheme %s: %w",
					q.tpl, got.header, ref.Scheme(), errWrongAnswer)
			}
		}
		want := make([]string, ref.Len())
		cells := make([]string, len(pos))
		for ri := range want {
			row := ref.RawRow(ri)
			for c, j := range pos {
				cells[c] = row[j].String()
			}
			want[ri] = strings.Join(cells, " ")
		}
		slices.Sort(want)
		slices.Sort(got.rows)
		if int64(len(got.rows)) != r.Rows || !slices.Equal(got.rows, want) {
			return nil, fmt.Errorf("oracle: %s (%s): server returned %d rows, reference %d, bags differ: %w",
				q.tpl, q.line, len(got.rows), len(want), errWrongAnswer)
		}
		q.wantRows = r.Rows
		checked[q.key] = r.Rows

		if _, seen := strategies[q.tpl]; !seen {
			ex, err := oc.mustOK("explain " + exprOf(q.line))
			if err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
			strategies[q.tpl] = strategyOf(ex.Output)
		}
	}
	return strategies, nil
}

type rendered struct {
	header []string
	rows   []string // cells joined by one space
}

// parseRendered reads Relation.String's text table: a header line, a
// dashes line, one line per row, and a "(N rows)" trailer. The
// benchmark's tables hold ints and nulls only, so cells have no spaces.
func parseRendered(out string) (rendered, error) {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 3 {
		return rendered{}, fmt.Errorf("rendered result has %d lines", len(lines))
	}
	r := rendered{header: strings.Fields(lines[0])}
	body := lines[2 : len(lines)-1]
	if want := fmt.Sprintf("(%d rows)", len(body)); lines[len(lines)-1] != want {
		return rendered{}, fmt.Errorf("rendered result ends %q, want %q", lines[len(lines)-1], want)
	}
	for _, l := range body {
		cells := strings.Fields(l)
		if len(cells) != len(r.header) {
			return rendered{}, fmt.Errorf("row %q has %d cells, header has %d", l, len(cells), len(r.header))
		}
		r.rows = append(r.rows, strings.Join(cells, " "))
	}
	return r, nil
}

// strategyOf extracts "-- strategy: NAME" from an explain output.
func strategyOf(explain string) string {
	const marker = "-- strategy: "
	i := strings.Index(explain, marker)
	if i < 0 {
		return ""
	}
	rest := explain[i+len(marker):]
	if j := strings.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	return strings.TrimSpace(rest)
}
