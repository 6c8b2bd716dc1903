package exec

import (
	"context"
	"errors"
	"testing"

	"freejoin/internal/algebra"
	"freejoin/internal/obs"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Semijoin-reduction behavior on top of the generic registry suites:
// the equi filter vs. the nested-loop semijoin, bag equality against
// the reference algebra, the filter's memory trip onto the nested-loop
// join and its spill, and the reduction-ratio accounting the Yannakakis
// observability rides on.

func semiOracle(t *testing.T, rt, st *storage.Table, p predicate.Predicate) *relation.Relation {
	t.Helper()
	ref, err := algebra.Semijoin(rt.Relation(), st.Relation(), p)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// semiJoinOf builds left ⋉ right on p as the optimizer lowers it: the
// equi filter, else the nested-loop join in SemiMode.
func semiJoinOf(t *testing.T, left, right Iterator, p predicate.Predicate, size int) Iterator {
	t.Helper()
	var it Iterator
	var err error
	if _, _, ok := predicate.EquiParts(p, left.Scheme(), right.Scheme()); ok {
		it, err = NewBatchSemiReduce(left, right, p, size)
	} else {
		it, err = NewBatchNestedLoopJoin(left, right, p, SemiMode, nil, size)
	}
	if err != nil {
		t.Fatal(err)
	}
	return it
}

// semiPreds are the two semijoin shapes: the equi filter's and the
// nested-loop join's.
func semiPreds() map[string]predicate.Predicate {
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	return map[string]predicate.Predicate{
		"equi":     predicate.Eq(rk, sk),
		"non-equi": predicate.Cmp(predicate.LtOp, predicate.Col(rk), predicate.Col(sk)),
	}
}

func TestSemiReducePathsMatchOracle(t *testing.T) {
	rt, st := spillTables(t, 300, 200)
	for name, p := range semiPreds() {
		t.Run(name, func(t *testing.T) {
			ref := semiOracle(t, rt, st, p)
			for _, size := range hashJoinSizes {
				s := semiJoinOf(t, NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0), p, size)
				if _, filter := s.(*BatchSemiReduce); filter != (name == "equi") {
					t.Fatalf("size %d: lowered to %T", size, s)
				}
				in0, out0 := obs.SemiReduceInputRows.Value(), obs.SemiReduceOutputRows.Value()
				got, err := Collect(s, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !ref.EqualBag(got) {
					t.Fatalf("size %d: semijoin bag differs from the algebra: want %d rows, got %d",
						size, ref.Len(), got.Len())
				}
				in := obs.SemiReduceInputRows.Value() - in0
				out := obs.SemiReduceOutputRows.Value() - out0
				if in != int64(rt.Relation().Len()) {
					t.Errorf("size %d: rows in = %d, want %d", size, in, rt.Relation().Len())
				}
				if out != int64(got.Len()) {
					t.Errorf("size %d: rows out = %d, want %d", size, out, got.Len())
				}
			}
		})
	}
}

// TestSemiReduceSpill forces the budget trip on both shapes: the bag
// must match the algebra, the operator must report its run, and the
// governor and spill dir must drain.
func TestSemiReduceSpill(t *testing.T) {
	rt, st := spillTables(t, 300, 200)
	for name, p := range semiPreds() {
		t.Run(name, func(t *testing.T) {
			ref := semiOracle(t, rt, st, p)
			s := semiJoinOf(t, NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0), p, 0)
			runs0 := obs.SpillRuns.Value()
			ec, gov, dir := spillCtx(t, 96)
			got, err := CollectCtx(ec, s, nil)
			if err != nil {
				t.Fatalf("spilled run failed: %v", err)
			}
			if !ref.EqualBag(got) {
				t.Fatalf("spilled bag differs: want %d rows, got %d", ref.Len(), got.Len())
			}
			if st := spillInfo(t, s); st.Runs != 1 {
				t.Errorf("expected one recorded spill run, got %+v", st)
			}
			if obs.SpillRuns.Value() == runs0 {
				t.Error("oj_spill_runs_total did not move")
			}
			checkSpillDrained(t, gov, dir)
		})
	}
}

// TestBatchSemiReduceTrip: the equi filter's key set trips the budget.
// With spill on it continues on a nested-loop semijoin over the same
// children, which spills the right input to one run: the bag is the
// algebra's at every batch size, the trip costs one degradation, and
// the reduction counters count each left row once. With spill off the
// typed trip names the filter.
func TestBatchSemiReduceTrip(t *testing.T) {
	rt, st := spillTables(t, 300, 200)
	p := semiPreds()["equi"]
	ref := semiOracle(t, rt, st, p)
	for _, size := range hashJoinSizes {
		s, err := NewBatchSemiReduce(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0), p, size)
		if err != nil {
			t.Fatal(err)
		}
		deg0, in0 := obs.GovernorDegradations.Value(), obs.SemiReduceInputRows.Value()
		ec, gov, dir := spillCtx(t, 96)
		got, err := CollectCtx(ec, s, nil)
		if err != nil {
			t.Fatalf("size %d: tripped filter failed: %v", size, err)
		}
		if !ref.EqualBag(got) {
			t.Errorf("size %d: bag differs: want %d rows, got %d", size, ref.Len(), got.Len())
		}
		if sp := s.SpillInfo(); sp.Runs != 1 {
			t.Errorf("size %d: want one run, got %+v", size, sp)
		}
		if n := countEvents(gov, "continuing on a nested-loop semijoin"); n != 1 {
			t.Errorf("size %d: %d hand-over events, want 1: %v", size, n, gov.Events())
		}
		if d := obs.GovernorDegradations.Value() - deg0; d != 1 {
			t.Errorf("size %d: %d degradations, want 1: %v", size, d, gov.Events())
		}
		if d := obs.SemiReduceInputRows.Value() - in0; d != int64(rt.Relation().Len()) {
			t.Errorf("size %d: rows in = %d, want %d", size, d, rt.Relation().Len())
		}
		checkSpillDrained(t, gov, dir)

		gov = NewGovernor(0, 96)
		_, err = CollectCtx(NewExecContext(context.Background(), gov), s, nil)
		var re *ResourceError
		if !errors.As(err, &re) || re.Kind != MemoryExceeded || re.Operator != "semireduce" {
			t.Fatalf("size %d: spill off: want a semireduce MemoryExceeded, got %v", size, err)
		}
		if gov.UsedRows() != 0 || gov.UsedBytes() != 0 {
			t.Errorf("size %d: spill off: governor not drained", size)
		}
	}
}

// TestSemiReduceNullKeys: null keys match nothing on either side (the
// filter drops null build keys, probes with null keys miss).
func TestSemiReduceNullKeys(t *testing.T) {
	r := relation.FromRows("R", []string{"k"}, []any{1}, []any{nil}, []any{2})
	s := relation.FromRows("S", []string{"k"}, []any{nil}, []any{2})
	rt, st := storage.NewTable("R", r), storage.NewTable("S", s)
	sr, err := NewBatchSemiReduce(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(sr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("want only R(2) to survive, got %d rows:\n%v", got.Len(), got)
	}
}

// TestSemiReduceObsCounters: the process-wide reduction counters absorb
// per-operator traffic, through either semijoin shape.
func TestSemiReduceObsCounters(t *testing.T) {
	rt, st := contractTables(t)
	for name, p := range semiPreds() {
		in0, out0 := obs.SemiReduceInputRows.Value(), obs.SemiReduceOutputRows.Value()
		s := semiJoinOf(t, NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0), p, 0)
		if err := runCycle(s, NewExecContext(context.Background(), nil)); err != nil {
			t.Fatal(err)
		}
		if d := obs.SemiReduceInputRows.Value() - in0; d != 5 {
			t.Errorf("%s: input counter moved by %d, want 5", name, d)
		}
		if d, want := obs.SemiReduceOutputRows.Value()-out0, int64(semiOracle(t, rt, st, p).Len()); d != want {
			t.Errorf("%s: output counter moved by %d, want %d", name, d, want)
		}
	}
}
