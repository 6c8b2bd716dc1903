package relation

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"
)

// Relation is a finite bag of rows over a scheme. Rows are stored
// positionally ([]Value aligned with the scheme), which keeps joins and
// scans allocation-light compared with map-based tuples; attribute lookup
// goes through the scheme's index once per operator, not once per row.
type Relation struct {
	scheme *Scheme
	rows   [][]Value
}

// New returns an empty relation over the scheme.
func New(scheme *Scheme) *Relation {
	return &Relation{scheme: scheme}
}

// Scheme returns the relation's scheme.
func (r *Relation) Scheme() *Scheme { return r.scheme }

// Len returns the number of rows (counting duplicates).
func (r *Relation) Len() int { return len(r.rows) }

// Row returns the i-th row as a Tuple view.
func (r *Relation) Row(i int) Tuple { return Tuple{scheme: r.scheme, vals: r.rows[i]} }

// RawRow returns the i-th row's value slice; callers must not modify it.
func (r *Relation) RawRow(i int) []Value { return r.rows[i] }

// RawRows returns every row without copying; callers must not modify them.
func (r *Relation) RawRows() [][]Value { return r.rows }

// Append adds a row; the arity must match the scheme.
func (r *Relation) Append(vals ...Value) error {
	if len(vals) != r.scheme.Len() {
		return fmt.Errorf("relation: row arity %d does not match scheme %s", len(vals), r.scheme)
	}
	r.rows = append(r.rows, vals)
	return nil
}

// MustAppend is Append that panics on error.
func (r *Relation) MustAppend(vals ...Value) {
	if err := r.Append(vals...); err != nil {
		panic(err)
	}
}

// AppendRaw adds a pre-validated row without copying; internal operators
// use it after computing output rows of the correct arity.
func (r *Relation) AppendRaw(vals []Value) { r.rows = append(r.rows, vals) }

// AppendTuple pads the tuple to the relation's scheme and appends it.
func (r *Relation) AppendTuple(t Tuple) error {
	if t.scheme.Equal(r.scheme) {
		r.rows = append(r.rows, t.vals)
		return nil
	}
	p, err := t.PadTo(r.scheme)
	if err != nil {
		return err
	}
	r.rows = append(r.rows, p.vals)
	return nil
}

// Clone returns a deep-enough copy: the row list is copied, the rows
// themselves are shared (rows are treated as immutable throughout).
func (r *Relation) Clone() *Relation {
	return &Relation{scheme: r.scheme, rows: append([][]Value(nil), r.rows...)}
}

// Tuples iterates rows in order, invoking f for each; it stops early if f
// returns false.
func (r *Relation) Tuples(f func(Tuple) bool) {
	for i := range r.rows {
		if !f(r.Row(i)) {
			return
		}
	}
}

// PadTo returns a copy of the relation padded onto a superscheme.
func (r *Relation) PadTo(target *Scheme) (*Relation, error) {
	if r.scheme.Equal(target) {
		return r, nil
	}
	// Precompute the column mapping once.
	pos := make([]int, r.scheme.Len())
	for i := 0; i < r.scheme.Len(); i++ {
		j := target.IndexOf(r.scheme.At(i))
		if j < 0 {
			return nil, fmt.Errorf("relation: cannot pad: %s not in target scheme %s", r.scheme.At(i), target)
		}
		pos[i] = j
	}
	out := New(target)
	for _, row := range r.rows {
		nv := make([]Value, target.Len())
		for i, j := range pos {
			nv[j] = row[i]
		}
		out.rows = append(out.rows, nv)
	}
	return out, nil
}

// compareRows is the canonical row order AppendText renders in: the
// total order on values, column by column. Rows it cannot tell apart
// otherwise are ordered by value kind and then by rendered text (Int(0)
// before Float(-0) before Float(0)), so the rendering of a bag does not
// depend on the order its rows arrived in.
func compareRows(a, b []Value) int {
	for k := range a {
		if c := a[k].Compare(b[k]); c != 0 {
			return c
		}
	}
	for k := range a { // of one kind, only floats (-0, 0) render differently
		c := cmp.Compare(a[k].kind, b[k].kind)
		if c == 0 && a[k].kind == KindFloat {
			var x, y [32]byte
			c = bytes.Compare(a[k].appendText(x[:0]), b[k].appendText(y[:0]))
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// Grow makes room for n more rows, at least doubling the row list when
// it reallocates (append regrows a large slice by only 1.25x).
func (r *Relation) Grow(n int) {
	if len(r.rows)+n > cap(r.rows) {
		r.rows = slices.Grow(r.rows, max(n, len(r.rows)))
	}
}

// EqualBag reports multiset equality of two relations. The schemes must
// contain the same attributes (order-insensitive: columns are aligned by
// attribute before comparing), matching the paper's convention that
// results are compared after padding to the union scheme.
func (r *Relation) EqualBag(s *Relation) bool {
	if r.Len() != s.Len() {
		return false
	}
	if !r.scheme.EqualSet(s.scheme) {
		return false
	}
	// Align s's columns to r's order.
	perm := make([]int, r.scheme.Len())
	for i := 0; i < r.scheme.Len(); i++ {
		perm[i] = s.scheme.IndexOf(r.scheme.At(i))
	}
	counts := make(map[string]int, r.Len())
	var buf []byte
	for _, row := range r.rows {
		buf = appendRowKey(buf[:0], row)
		counts[string(buf)]++
	}
	aligned := make([]Value, len(perm))
	for _, row := range s.rows {
		for i, j := range perm {
			aligned[i] = row[j]
		}
		buf = appendRowKey(buf[:0], aligned)
		k := string(buf)
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// Dedup returns a copy with duplicate rows removed (set semantics); used
// by the paper's duplicate-removing projection π in the GOJ definition.
func (r *Relation) Dedup() *Relation {
	out := New(r.scheme)
	seen := make(map[string]struct{}, len(r.rows))
	var buf []byte
	for _, row := range r.rows {
		buf = appendRowKey(buf[:0], row)
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		out.rows = append(out.rows, row)
	}
	return out
}

// HasDuplicates reports whether any row occurs more than once.
func (r *Relation) HasDuplicates() bool {
	seen := make(map[string]struct{}, len(r.rows))
	var buf []byte
	for _, row := range r.rows {
		buf = appendRowKey(buf[:0], row)
		if _, dup := seen[string(buf)]; dup {
			return true
		}
		seen[string(buf)] = struct{}{}
	}
	return false
}

// String renders the relation as an aligned text table (AppendText).
func (r *Relation) String() string { return string(r.AppendText(nil)) }

// sortKey is a row's slot in the render order: its index and, when its
// first value is an int, that int, so most comparisons skip the rows.
type sortKey struct {
	key  int64
	idx  int32
	lead bool
}

// AppendText appends the relation rendered as an aligned text table to
// dst: attribute names, a dashed rule, the rows in canonical order
// (compareRows; the receiver is not mutated) and a "(N rows)" footer.
// Widths come from cell lengths, so each cell is formatted once, into dst.
func (r *Relation) AppendText(dst []byte) []byte {
	order := make([]sortKey, len(r.rows))
	for i, row := range r.rows {
		order[i].idx = int32(i)
		if len(row) > 0 && row[0].kind == KindInt {
			order[i].key, order[i].lead = row[0].i, true
		}
	}
	slices.SortFunc(order, func(a, b sortKey) int {
		if a.lead && b.lead && a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return compareRows(r.rows[a.idx], r.rows[b.idx])
	})

	attrs := r.scheme.attrs
	widths := make([]int, len(attrs))
	for c, a := range attrs {
		widths[c] = len(a.Rel) + 1 + len(a.Name)
	}
	for _, row := range r.rows {
		for c, v := range row {
			widths[c] = max(widths[c], v.textLen())
		}
	}
	line := 1 // a line's bytes, every cell padded, and the newline
	for _, w := range widths {
		line += w + 2
	}
	dst = slices.Grow(dst, (len(r.rows)+2)*line+32)

	last := len(attrs) - 1
	for c, a := range attrs {
		start := len(dst)
		dst = padCell(append(append(append(dst, a.Rel...), '.'), a.Name...), start, widths[c], c == last)
	}
	dst = append(dst, '\n')
	for c, w := range widths {
		start := len(dst)
		for range w {
			dst = append(dst, '-')
		}
		dst = padCell(dst, start, w, c == last)
	}
	dst = append(dst, '\n')
	for _, o := range order {
		for c, v := range r.rows[o.idx] {
			start := len(dst)
			dst = padCell(v.appendText(dst), start, widths[c], c == last)
		}
		dst = append(dst, '\n')
	}
	dst = strconv.AppendInt(append(dst, '('), int64(len(r.rows)), 10)
	return append(dst, " rows)\n"...)
}

// padCell pads the cell written to dst since start to width plus the
// two-space column gap; the last cell of a line is not padded.
func padCell(dst []byte, start, width int, last bool) []byte {
	for n := len(dst) - start; !last && n < width+2; n++ {
		dst = append(dst, ' ')
	}
	return dst
}
