package relation

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// oracleCell is Value.String as it was before appendText.
func oracleCell(v Value) string {
	switch v.kind {
	case KindNull:
		return "-"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return v.s
	}
}

// oracleString is Relation.String as it was before AppendText: clone,
// sort.Slice by Compare, one string per cell, a strings.Builder. The
// renderer must reproduce it byte for byte wherever its unstable sort
// is deterministic.
func oracleString(r *Relation) string {
	cp := r.Clone()
	sort.Slice(cp.rows, func(i, j int) bool {
		a, b := cp.rows[i], cp.rows[j]
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	cols := r.scheme.Len()
	widths := make([]int, cols)
	header := make([]string, cols)
	for i := 0; i < cols; i++ {
		header[i] = r.scheme.At(i).String()
		widths[i] = len(header[i])
	}
	cells := make([][]string, len(cp.rows))
	for ri, row := range cp.rows {
		cells[ri] = make([]string, cols)
		for ci, v := range row {
			s := oracleCell(v)
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(fields []string) {
		for i, f := range fields {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(f)
			if i < len(fields)-1 {
				for p := len(f); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(cp.rows))
	return b.String()
}

// randomValue draws from every kind, with the edge cases of each:
// negative and extreme ints, NaN/±Inf/-0 floats, and strings holding
// quotes, HTML metacharacters, control bytes, invalid UTF-8 and U+2028.
func randomValue(rnd *rand.Rand) Value {
	switch rnd.Intn(5) {
	case 0:
		return Null()
	case 1:
		return Bool(rnd.Intn(2) == 0)
	case 2:
		ints := []int64{0, -1, 7, math.MaxInt64, math.MinInt64, 1e18, -123456789}
		if rnd.Intn(2) == 0 {
			return Int(ints[rnd.Intn(len(ints))])
		}
		return Int(rnd.Int63n(2e6) - 1e6)
	case 3:
		floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.5, -2.25, 1e-300, 3e21}
		return Float(floats[rnd.Intn(len(floats))])
	default:
		strs := []string{"", "x", `say "hi"`, "<a&b>", "tab\there", "\x01\x1f", "\xff\xfe", "line\u2028sep", "naïve", "-"}
		return Str(strs[rnd.Intn(len(strs))])
	}
}

func randomRelation(rnd *rand.Rand, cols, rows int) *Relation {
	names := make([]string, cols)
	for i := range names {
		names[i] = strings.Repeat("c", 1+rnd.Intn(3)) + strconv.Itoa(i)
	}
	r := New(SchemeOf("R", names...))
	for i := 0; i < rows; i++ {
		row := make([]Value, cols)
		for c := range row {
			row[c] = randomValue(rnd)
		}
		r.AppendRaw(row)
	}
	return r
}

// ambiguousTies reports whether two rows tie under Compare yet render
// differently — the only inputs on which the oracle's unstable sort is
// not a function of the bag.
func ambiguousTies(r *Relation) bool {
	for i, a := range r.rows {
		for _, b := range r.rows[i+1:] {
			if compareRowsByValue(a, b) == 0 && oracleRow(a) != oracleRow(b) {
				return true
			}
		}
	}
	return false
}

func oracleRow(row []Value) string {
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = oracleCell(v)
	}
	return strings.Join(cells, "|")
}

func compareRowsByValue(a, b []Value) int {
	for k := range a {
		if c := a[k].Compare(b[k]); c != 0 {
			return c
		}
	}
	return 0
}

func TestAppendTextMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	checked := 0
	for i := 0; i < 600; i++ {
		r := randomRelation(rnd, rnd.Intn(5), rnd.Intn(40))
		if ambiguousTies(r) {
			continue
		}
		checked++
		want := oracleString(r)
		if got := r.String(); got != want {
			t.Fatalf("relation %d: AppendText differs from the oracle\n got:\n%s\nwant:\n%s", i, got, want)
		}
		prefix := []byte("keep:")
		if got := string(r.AppendText(prefix)); got != "keep:"+want {
			t.Fatalf("relation %d: AppendText must append after dst's contents", i)
		}
	}
	if checked < 300 {
		t.Fatalf("only %d of 600 random relations were free of ambiguous ties", checked)
	}
}

// TestRenderIsAFunctionOfTheBag: every permutation of a relation's rows
// renders identically, including rows that tie under Compare but render
// differently (0 / -0, 1e18 as int and as float).
func TestRenderIsAFunctionOfTheBag(t *testing.T) {
	r := New(SchemeOf("R", "a", "b"))
	for _, row := range [][]Value{
		{Int(0), Str("x")}, {Float(math.Copysign(0, -1)), Str("x")}, {Float(0), Str("x")},
		{Int(1e18), Null()}, {Float(1e18), Null()},
		{Float(math.NaN()), Int(1)}, {Float(math.NaN()), Float(1)},
		{Int(2), Bool(true)}, {Int(2), Bool(true)},
	} {
		r.AppendRaw(row)
	}
	want := r.String()
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		p := r.Clone()
		rnd.Shuffle(len(p.rows), func(i, j int) { p.rows[i], p.rows[j] = p.rows[j], p.rows[i] })
		if got := p.String(); got != want {
			t.Fatalf("permutation %d renders differently\n got:\n%s\nwant:\n%s", i, got, want)
		}
	}
	// And on random relations, mixed-kind ties included.
	for i := 0; i < 200; i++ {
		r := randomRelation(rnd, 1+rnd.Intn(3), rnd.Intn(30))
		want := r.String()
		for k := 0; k < 5; k++ {
			p := r.Clone()
			rnd.Shuffle(len(p.rows), func(i, j int) { p.rows[i], p.rows[j] = p.rows[j], p.rows[i] })
			if got := p.String(); got != want {
				t.Fatalf("relation %d permutation %d renders differently\n got:\n%s\nwant:\n%s", i, k, got, want)
			}
		}
	}
}

func TestValueTextMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	vals := []Value{Int(0), Int(9), Int(10), Int(-9), Int(-10), Int(99), Int(100),
		Int(math.MaxInt64), Int(math.MinInt64), Bool(true), Bool(false), Null()}
	for p := int64(1); p > 0 && p < math.MaxInt64/10; p *= 10 {
		vals = append(vals, Int(p-1), Int(p), Int(p+1), Int(-p), Int(-p+1))
	}
	for i := 0; i < 2000; i++ {
		vals = append(vals, Int(rnd.Int63()>>rnd.Intn(63)), randomValue(rnd))
	}
	for _, v := range vals {
		want := oracleCell(v)
		if got := v.textLen(); got != len(want) {
			t.Fatalf("textLen(%s) = %d, want %d", want, got, len(want))
		}
		if got := v.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

// TestJoinKeyEqualMatchesEncoding: comparing join keys by value agrees
// with comparing their AppendJoinKey bytes on every pair, including an
// integral float against the equal int, -0 against 0, NaN against NaN
// and floats past the int range. Keys JoinKeyEqual calls equal have
// equal HashJoinKey hashes from any seed, and on this set unequal keys
// never collide.
func TestJoinKeyEqualMatchesEncoding(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	vals := []Value{Int(0), Float(0), Float(math.Copysign(0, -1)), Int(3), Float(3), Float(3.5),
		Int(-3), Float(-3), Int(1e18), Float(1e18), Float(9.2e18), Int(9.2e18), Float(-9.2e18), Int(-9.2e18),
		Float(math.Nextafter(9.2e18, math.Inf(1))), Float(9.3e18), Int(math.MaxInt64),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Inf(1)), Float(math.Inf(-1)),
		Str("3"), Str(""), Str("abc"), Str("abd"), Bool(true), Bool(false), Int(1)}
	for i := 0; i < 60; i++ {
		vals = append(vals, randomValue(rnd))
	}
	for _, a := range vals {
		for _, b := range vals {
			want := string(AppendJoinKey(nil, a)) == string(AppendJoinKey(nil, b))
			eq := JoinKeyEqual(a, b)
			if eq != want {
				t.Fatalf("JoinKeyEqual(%s %v, %s %v) = %v, encodings say %v", a.kind, a, b.kind, b, eq, want)
			}
			for _, h := range []uint64{0, 0x9e3779b97f4a7c15, HashJoinKey(0, Str("salt"))} {
				if ha, hb := HashJoinKey(h, a), HashJoinKey(h, b); (ha == hb) != eq {
					t.Fatalf("seed %#x: HashJoinKey(%s %v) = %#x, HashJoinKey(%s %v) = %#x, JoinKeyEqual = %v",
						h, a.kind, a, ha, b.kind, b, hb, eq)
				}
			}
		}
	}
}

func TestGrowDoubles(t *testing.T) {
	r := New(SchemeOf("R", "a"))
	row := []Value{Int(1)}
	grows := 0
	for i := 0; i < 6000; i += 100 {
		c := cap(r.rows)
		r.Grow(100)
		if cap(r.rows) != c {
			grows++
			if c > 0 && cap(r.rows) < 2*c {
				t.Fatalf("Grow from cap %d to %d: want at least doubling", c, cap(r.rows))
			}
		}
		for k := 0; k < 100; k++ {
			r.AppendRaw(row)
		}
	}
	if grows > 8 {
		t.Errorf("6,000 rows took %d reallocations", grows)
	}
}

// TestAppendTextAllocs: rendering into a buffer that is already large
// enough allocates only the sort order and the column widths.
func TestAppendTextAllocs(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	r := New(SchemeOf("W", "a", "b", "c", "d"))
	for i := 0; i < 6000; i++ {
		r.AppendRaw([]Value{Int(rnd.Int63n(1e9)), Int(rnd.Int63n(1e9)), Null(), Int(rnd.Int63n(1e8))})
	}
	buf := r.AppendText(nil)
	allocs := testing.AllocsPerRun(5, func() { buf = r.AppendText(buf[:0]) })
	if allocs > 2 {
		t.Errorf("AppendText of 6,000x4 into a reused buffer: %.0f allocations, want <= 2", allocs)
	}
}
