package exec

import (
	"slices"
	"testing"

	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// The iterator contract every operator must honor:
//
//  1. Open → drain → Close, then Open → drain again, yields the same bag
//     (operators must fully reset internal state on re-Open);
//  2. Close is idempotent;
//  3. a Buffered operator reports zero buffered rows once closed (its
//     materialized state must actually be released, not merely ignored).

// contractTables builds the shared inputs: R(k,v) with duplicate and null
// keys, and S(k,w) with a hash index on k.
func contractTables(t *testing.T) (*storage.Table, *storage.Table) {
	t.Helper()
	r := relation.FromRows("R", []string{"k", "v"},
		[]any{1, 10}, []any{2, 20}, []any{2, 21}, []any{3, 30}, []any{nil, 40})
	s := relation.FromRows("S", []string{"k", "w"},
		[]any{2, "a"}, []any{2, "b"}, []any{3, "c"}, []any{5, "d"})
	rt := storage.NewTable("R", r)
	st := storage.NewTable("S", s)
	if _, err := st.BuildHashIndex("k"); err != nil {
		t.Fatal(err)
	}
	return rt, st
}

// contractCases derives the contract inventory from the shared operator
// registry (registry_test.go): every registered operator is built over
// clean (fault-free, still lifecycle-audited) children.
func contractCases(t *testing.T, rt, st *storage.Table, c *Counters) map[string]func() Iterator {
	t.Helper()
	reg := operatorRegistry(t, rt, st, c)
	cases := make(map[string]func() Iterator, len(reg))
	for name, oc := range reg {
		oc := oc
		cases[name] = func() Iterator {
			ch, _ := buildChildren(rt, st, oc, -1, Fault{})
			return oc.build(t, ch)
		}
	}
	return cases
}

// drainBag runs one full Open → drain → Close cycle.
func drainBag(t *testing.T, it Iterator) *relation.Relation {
	t.Helper()
	if err := it.Open(nil); err != nil {
		t.Fatal(err)
	}
	out := relation.New(it.Scheme())
	for {
		b, ok, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		// The ownership contract says a batch is only valid until the
		// next NextBatch/Close; retaining its rows across calls requires
		// a copy. (The operators really do reuse their slabs, so
		// aliasing here corrupts the drained bag.)
		for i := 0; i < b.Len(); i++ {
			out.AppendRaw(slices.Clone(b.Row(i)))
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestIteratorContract(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	for name, mk := range contractCases(t, rt, st, &c) {
		t.Run(name, func(t *testing.T) {
			it := mk()
			first := drainBag(t, it)
			if first.Len() == 0 {
				t.Fatal("contract case produced no rows; the inputs must exercise the operator")
			}
			if b, ok := it.(Buffered); ok {
				if n := b.BufferedRows(); n != 0 {
					t.Errorf("BufferedRows() = %d after Close, want 0 (buffers must be released)", n)
				}
			}
			if err := it.Close(); err != nil {
				t.Fatalf("second Close must be a no-op, got %v", err)
			}
			second := drainBag(t, it)
			if !first.EqualBag(second) {
				t.Errorf("re-opened iterator changed its bag:\nfirst (%d rows):\n%vsecond (%d rows):\n%v",
					first.Len(), first, second.Len(), second)
			}
		})
	}
}
