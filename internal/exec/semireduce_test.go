package exec

import (
	"context"
	"testing"

	"freejoin/internal/obs"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// SemiReduce-specific behavior on top of the generic registry suites:
// the hash-filter vs. scan path split, bag equality against the
// nested-loop semijoin oracle, spill-mode equivalence, and the
// reduction-ratio accounting the Yannakakis observability rides on.

func semiOracle(t *testing.T, rt, st *storage.Table, p predicate.Predicate) *relation.Relation {
	t.Helper()
	nl, err := NewNestedLoopJoin(NewScan(rt, nil), NewScan(st, nil), p, SemiMode, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Collect(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestSemiReducePathsMatchOracle(t *testing.T) {
	rt, st := spillTables(t, 300, 200)
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	preds := map[string]predicate.Predicate{
		"equi":     predicate.Eq(rk, sk),
		"non-equi": predicate.Cmp(predicate.LtOp, predicate.Col(rk), predicate.Col(sk)),
	}
	for name, p := range preds {
		t.Run(name, func(t *testing.T) {
			ref := semiOracle(t, rt, st, p)
			s, err := NewSemiReduce(NewScan(rt, nil), NewScan(st, nil), p)
			if err != nil {
				t.Fatal(err)
			}
			if wantEqui := name == "equi"; s.equi != wantEqui {
				t.Fatalf("hash-filter path = %v, want %v", s.equi, wantEqui)
			}
			in0, out0 := obs.SemiReduceInputRows.Value(), obs.SemiReduceOutputRows.Value()
			got, err := Collect(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.EqualBag(got) {
				t.Fatalf("semireduce bag differs from semijoin oracle: want %d rows, got %d",
					ref.Len(), got.Len())
			}
			in := obs.SemiReduceInputRows.Value() - in0
			out := obs.SemiReduceOutputRows.Value() - out0
			if in != int64(rt.Relation().Len()) {
				t.Errorf("rows in = %d, want %d", in, rt.Relation().Len())
			}
			if out != int64(got.Len()) {
				t.Errorf("rows out = %d, want %d", out, got.Len())
			}
			if out > in {
				t.Errorf("a filter grew its input: in=%d out=%d", in, out)
			}
		})
	}
}

// TestSemiReduceSpill forces the budget trip in both modes: the bag must
// match the unbudgeted run, the operator must report its run, and the
// governor and spill dir must drain.
func TestSemiReduceSpill(t *testing.T) {
	rt, st := spillTables(t, 300, 200)
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	for name, p := range map[string]predicate.Predicate{
		"equi":     predicate.Eq(rk, sk),
		"non-equi": predicate.Cmp(predicate.LtOp, predicate.Col(rk), predicate.Col(sk)),
	} {
		t.Run(name, func(t *testing.T) {
			ref := semiOracle(t, rt, st, p)
			s, err := NewSemiReduce(NewScan(rt, nil), NewScan(st, nil), p)
			if err != nil {
				t.Fatal(err)
			}
			runs0 := obs.SpillRuns.Value()
			ec, gov, dir := spillCtx(t, 96)
			got, err := CollectCtx(ec, s, nil)
			if err != nil {
				t.Fatalf("spilled run failed: %v", err)
			}
			if !ref.EqualBag(got) {
				t.Fatalf("spilled bag differs: want %d rows, got %d", ref.Len(), got.Len())
			}
			if st := s.SpillInfo(); !st.Spilled() || st.Runs == 0 {
				t.Errorf("expected a recorded spill run, got %+v", st)
			}
			if obs.SpillRuns.Value() == runs0 {
				t.Error("oj_spill_runs_total did not move")
			}
			checkSpillDrained(t, gov, dir)
		})
	}
}

// TestSemiReduceNullKeys: null keys match nothing on either side, in
// both modes (the filter drops null build keys, probes with null keys
// miss).
func TestSemiReduceNullKeys(t *testing.T) {
	r := relation.FromRows("R", []string{"k"}, []any{1}, []any{nil}, []any{2})
	s := relation.FromRows("S", []string{"k"}, []any{nil}, []any{2})
	rt, st := storage.NewTable("R", r), storage.NewTable("S", s)
	sr, err := NewSemiReduce(NewScan(rt, nil), NewScan(st, nil),
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")))
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
// per-operator traffic.
func TestSemiReduceObsCounters(t *testing.T) {
	rt, st := contractTables(t)
	in0, out0 := obs.SemiReduceInputRows.Value(), obs.SemiReduceOutputRows.Value()
	s, err := NewSemiReduce(NewScan(rt, nil), NewScan(st, nil),
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")))
	if err != nil {
		t.Fatal(err)
	}
	if err := runCycle(s, NewExecContext(context.Background(), nil)); err != nil {
		t.Fatal(err)
	}
	if d := obs.SemiReduceInputRows.Value() - in0; d != 5 {
		t.Errorf("input counter moved by %d, want 5", d)
	}
	if d := obs.SemiReduceOutputRows.Value() - out0; d != 3 {
		t.Errorf("output counter moved by %d, want 3 (k=2,2,3 survive)", d)
	}
}
