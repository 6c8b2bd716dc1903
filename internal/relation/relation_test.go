package relation

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTupleBasics(t *testing.T) {
	s := SchemeOf("R", "a", "b")
	tp := MustTuple(s, Int(1), Str("x"))
	if tp.Len() != 2 || tp.At(0) != Int(1) {
		t.Fatal("tuple construction broken")
	}
	if v, ok := tp.Get(A("R", "b")); !ok || v != Str("x") {
		t.Error("Get broken")
	}
	if _, ok := tp.Get(A("R", "z")); ok {
		t.Error("Get must report missing attrs")
	}
	if tp.MustGet(A("R", "a")) != Int(1) {
		t.Error("MustGet broken")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustGet should panic on missing attr")
			}
		}()
		tp.MustGet(A("Z", "z"))
	}()
	if got := tp.String(); got != "(1, x)" {
		t.Errorf("String = %q", got)
	}
	if _, err := NewTuple(s, []Value{Int(1)}); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestNullTuple(t *testing.T) {
	s := SchemeOf("R", "a", "b")
	nt := NullTuple(s)
	for i := 0; i < nt.Len(); i++ {
		if !nt.At(i).IsNull() {
			t.Fatal("NullTuple must be all null")
		}
	}
	if !nt.AllNullOn(s.AttrSet()) {
		t.Error("AllNullOn broken on null tuple")
	}
}

func TestAllNullOn(t *testing.T) {
	s := SchemeOf("R", "a", "b")
	tp := MustTuple(s, Null(), Int(2))
	if !tp.AllNullOn(NewAttrSet(A("R", "a"))) {
		t.Error("a is null")
	}
	if tp.AllNullOn(NewAttrSet(A("R", "b"))) {
		t.Error("b is not null")
	}
	// Attributes outside the scheme are vacuously null-satisfied.
	if !tp.AllNullOn(NewAttrSet(A("S", "z"))) {
		t.Error("attrs absent from the scheme do not block AllNullOn")
	}
}

func TestTupleConcatAndPad(t *testing.T) {
	r := MustTuple(SchemeOf("R", "a"), Int(1))
	s := MustTuple(SchemeOf("S", "b"), Str("x"))
	rs, err := r.Concat(s)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 || rs.MustGet(A("S", "b")) != Str("x") {
		t.Error("Concat broken")
	}
	if _, err := r.Concat(r); err == nil {
		t.Error("Concat of overlapping schemes must fail")
	}

	target := MustScheme(A("S", "b"), A("R", "a"), A("T", "c"))
	p, err := r.PadTo(target)
	if err != nil {
		t.Fatal(err)
	}
	if p.MustGet(A("R", "a")) != Int(1) || !p.MustGet(A("T", "c")).IsNull() || !p.MustGet(A("S", "b")).IsNull() {
		t.Errorf("PadTo produced %v", p)
	}
	if _, err := rs.PadTo(SchemeOf("R", "a")); err == nil {
		t.Error("PadTo must fail when target misses attrs")
	}
}

func TestTupleIdenticalAndKey(t *testing.T) {
	s := SchemeOf("R", "a", "b")
	t1 := MustTuple(s, Int(1), Null())
	t2 := MustTuple(s, Int(1), Null())
	t3 := MustTuple(s, Int(1), Int(0))
	if !t1.Identical(t2) || t1.Identical(t3) {
		t.Error("Identical broken")
	}
	if t1.Key() != t2.Key() || t1.Key() == t3.Key() {
		t.Error("Key broken")
	}
	other := MustTuple(SchemeOf("S", "a", "b"), Int(1), Null())
	if t1.Identical(other) {
		t.Error("Identical must require equal schemes")
	}
}

func TestRelationAppendAndLen(t *testing.T) {
	r := New(SchemeOf("R", "a"))
	if err := r.Append(Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(Int(1), Int(2)); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	r.MustAppend(Int(2))
	if r.Len() != 2 || r.Row(1).At(0) != Int(2) {
		t.Error("Append/Len/Row broken")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustAppend should panic on bad arity")
			}
		}()
		r.MustAppend()
	}()
}

func TestRelationAppendTuple(t *testing.T) {
	r := New(MustScheme(A("R", "a"), A("S", "b")))
	sub := MustTuple(SchemeOf("R", "a"), Int(7))
	if err := r.AppendTuple(sub); err != nil {
		t.Fatal(err)
	}
	if got := r.Row(0); got.At(0) != Int(7) || !got.At(1).IsNull() {
		t.Errorf("AppendTuple pad = %v", got)
	}
	same := MustTuple(r.Scheme(), Int(1), Str("x"))
	if err := r.AppendTuple(same); err != nil || r.Len() != 2 {
		t.Error("AppendTuple same-scheme broken")
	}
	bad := MustTuple(SchemeOf("Z", "z"), Int(1))
	if err := r.AppendTuple(bad); err == nil {
		t.Error("AppendTuple with foreign scheme must fail")
	}
}

func TestRelationEqualBag(t *testing.T) {
	a := FromRows("R", []string{"x", "y"},
		[]any{1, "a"}, []any{1, "a"}, []any{2, nil})
	b := FromRows("R", []string{"x", "y"},
		[]any{2, nil}, []any{1, "a"}, []any{1, "a"})
	if !a.EqualBag(b) {
		t.Fatal("bag equality must ignore order")
	}
	c := FromRows("R", []string{"x", "y"},
		[]any{1, "a"}, []any{2, nil}, []any{2, nil})
	if a.EqualBag(c) {
		t.Fatal("bag equality must respect multiplicities")
	}
	short := FromRows("R", []string{"x", "y"}, []any{1, "a"})
	if a.EqualBag(short) {
		t.Fatal("bag equality must compare sizes")
	}
	otherScheme := FromRows("S", []string{"x", "y"},
		[]any{1, "a"}, []any{1, "a"}, []any{2, nil})
	if a.EqualBag(otherScheme) {
		t.Fatal("bag equality must compare schemes")
	}
}

func TestRelationEqualBagColumnOrderInsensitive(t *testing.T) {
	a := New(MustScheme(A("R", "x"), A("R", "y")))
	a.MustAppend(Int(1), Str("a"))
	b := New(MustScheme(A("R", "y"), A("R", "x")))
	b.MustAppend(Str("a"), Int(1))
	if !a.EqualBag(b) {
		t.Fatal("EqualBag must align columns by attribute")
	}
	b2 := New(MustScheme(A("R", "y"), A("R", "x")))
	b2.MustAppend(Int(1), Str("a")) // swapped content
	if a.EqualBag(b2) {
		t.Fatal("EqualBag must not match misaligned content")
	}
}

func TestRelationDedupAndHasDuplicates(t *testing.T) {
	r := FromRows("R", []string{"x"}, []any{1}, []any{1}, []any{2})
	if !r.HasDuplicates() {
		t.Error("HasDuplicates positive broken")
	}
	d := r.Dedup()
	if d.Len() != 2 || d.HasDuplicates() {
		t.Errorf("Dedup -> %d rows", d.Len())
	}
	if r.Len() != 3 {
		t.Error("Dedup must not mutate the receiver")
	}
}

func TestRelationPadTo(t *testing.T) {
	r := FromRows("R", []string{"a"}, []any{1}, []any{2})
	target := MustScheme(A("S", "b"), A("R", "a"))
	p, err := r.PadTo(target)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || !p.Row(0).At(0).IsNull() || p.Row(0).At(1) != Int(1) {
		t.Errorf("PadTo = %v", p.Row(0))
	}
	if q, err := r.PadTo(r.Scheme()); err != nil || q != r {
		t.Error("PadTo to same scheme should be identity")
	}
	if _, err := r.PadTo(SchemeOf("S", "b")); err == nil {
		t.Error("PadTo must fail when target misses attrs")
	}
}

func TestRelationCloneIsolation(t *testing.T) {
	r := FromRows("R", []string{"a"}, []any{1})
	c := r.Clone()
	c.MustAppend(Int(2))
	if r.Len() != 1 || c.Len() != 2 {
		t.Error("Clone must isolate the row list")
	}
}

func TestRelationTuplesEarlyStop(t *testing.T) {
	r := FromRows("R", []string{"a"}, []any{1}, []any{2}, []any{3})
	n := 0
	r.Tuples(func(Tuple) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d rows", n)
	}
}

func TestRelationString(t *testing.T) {
	r := FromRows("R", []string{"a", "b"}, []any{2, nil}, []any{1, "xyz"})
	s := r.String()
	if !strings.Contains(s, "R.a") || !strings.Contains(s, "(2 rows)") {
		t.Errorf("String output missing pieces:\n%s", s)
	}
	// Canonical order: row with 1 first.
	if strings.Index(s, "1 ") > strings.Index(s, "2 ") {
		t.Errorf("rows not canonically sorted:\n%s", s)
	}
	if r.Row(0).At(0) != Int(2) {
		t.Error("String must not mutate row order")
	}
}

func TestSortCanonicalProperty(t *testing.T) {
	f := func(xs []int8) bool {
		r := New(SchemeOf("R", "a"))
		for _, x := range xs {
			r.MustAppend(Int(int64(x)))
		}
		slices.SortFunc(r.rows, compareRows)
		for i := 1; i < r.Len(); i++ {
			if r.Row(i-1).At(0).Compare(r.Row(i).At(0)) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromRowsAndV(t *testing.T) {
	r := FromRows("R", []string{"a", "b", "c", "d", "e"},
		[]any{nil, true, 1, 2.5, "s"})
	row := r.Row(0)
	if !row.At(0).IsNull() || !row.At(1).AsBool() || row.At(2).AsInt() != 1 ||
		row.At(3).AsFloat() != 2.5 || row.At(4).AsString() != "s" {
		t.Errorf("FromRows literal conversion broken: %v", row)
	}
	if V(Int(9)) != Int(9) {
		t.Error("V must pass Values through")
	}
	if V(int64(3)) != Int(3) {
		t.Error("V int64 broken")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("V should panic on unsupported type")
			}
		}()
		V(struct{}{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FromRows should panic on arity mismatch")
			}
		}()
		FromRows("R", []string{"a"}, []any{1, 2})
	}()
}
