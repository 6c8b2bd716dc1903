package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// The error-path contract, the fault-injection sibling of
// contract_test.go. Every operator must:
//
//  1. propagate an injected child error (Open, mid-stream NextBatch,
//     Close)
//     instead of hanging, panicking, or silently truncating;
//  2. leave every child it opened closed once the operator itself is
//     closed — including when a later step of its own Open failed;
//  3. never call NextBatch on a child that already returned an error;
//  4. release its buffers (BufferedRows == 0) and its governor charges
//     after Close, error or not;
//  5. fail fast with a typed *ResourceError when opened under a
//     cancelled or deadline-expired context.
//
// The operator inventory lives in registry_test.go (operatorRegistry):
// every suite below iterates that one registry, so a new operator is
// covered by registering it once.

// runCycle performs one governed Open → drain → Close cycle and returns
// the first error from any phase (Close errors included — they must not
// be swallowed).
func runCycle(it Iterator, ec *ExecContext) error {
	if err := it.Open(ec); err != nil {
		it.Close()
		return err
	}
	for {
		_, ok, err := it.NextBatch()
		if err != nil {
			it.Close()
			return err
		}
		if !ok {
			break
		}
	}
	return it.Close()
}

// checkInvariants asserts the post-Close obligations: audited children
// balanced and never read after an error, buffers released, governor
// drained.
func checkInvariants(t *testing.T, it Iterator, fis []*FaultIterator, gov *Governor) {
	t.Helper()
	for i, fi := range fis {
		if fi.NextAfterError > 0 {
			t.Errorf("child %d: %d NextBatch calls after an error", i, fi.NextAfterError)
		}
		if !fi.Balanced() {
			t.Errorf("child %d leaked: opens=%d closes=%d", i, fi.OpenCalls, fi.CloseCalls)
		}
	}
	if b, ok := it.(Buffered); ok {
		if n := b.BufferedRows(); n != 0 {
			t.Errorf("BufferedRows() = %d after Close, want 0", n)
		}
	}
	if n := gov.UsedRows(); n != 0 {
		t.Errorf("governor still holds %d rows after Close", n)
	}
	if n := gov.UsedBytes(); n != 0 {
		t.Errorf("governor still holds %d bytes after Close", n)
	}
}

// TestErrorPathContract drives every operator over every child position
// with faults on Open, on the first NextBatch, mid-stream, on Close, and
// probabilistically — asserting propagation and clean teardown each time.
func TestErrorPathContract(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	faults := []struct {
		name      string
		f         Fault
		mustError bool
	}{
		{"open", Fault{FailOpen: true}, true},
		{"next-first", Fault{FailNext: true, FailAfter: 0}, true},
		{"next-midstream", Fault{FailNext: true, FailAfter: 2}, true},
		{"close", Fault{FailClose: true}, true},
		{"probabilistic", Fault{Prob: 0.5, Seed: 1}, false},
	}
	for name, fc := range operatorRegistry(t, rt, st, &c) {
		for pos := 0; pos < fc.children; pos++ {
			for _, fault := range faults {
				t.Run(name+"/"+fault.name+"/child", func(t *testing.T) {
					ch, fis := buildChildren(rt, st, fc, pos, fault.f)
					it := fc.build(t, ch)
					gov := NewGovernor(0, 0)
					err := runCycle(it, NewExecContext(context.Background(), gov))
					if fault.mustError && err == nil {
						t.Errorf("injected %s fault on child %d was swallowed", fault.name, pos)
					}
					if err != nil && !errors.Is(err, ErrInjected) {
						t.Errorf("error lost its cause: %v", err)
					}
					checkInvariants(t, it, fis, gov)
				})
			}
		}
	}
}

// TestCancelledContextFailsFast opens every registered operator under an
// already-cancelled context: each must return a typed Cancelled
// *ResourceError from Open and tear down cleanly.
func TestCancelledContextFailsFast(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, fc := range operatorRegistry(t, rt, st, &c) {
		t.Run(name, func(t *testing.T) {
			ch, fis := buildChildren(rt, st, fc, -1, Fault{})
			it := fc.build(t, ch)
			gov := NewGovernor(0, 0)
			err := runCycle(it, NewExecContext(ctx, gov))
			var re *ResourceError
			if !errors.As(err, &re) || re.Kind != Cancelled {
				t.Fatalf("want Cancelled ResourceError, got %v", err)
			}
			checkInvariants(t, it, fis, gov)
		})
	}
}

// TestExpiredDeadline runs a representative materializing pipeline under
// an expired deadline.
func TestExpiredDeadline(t *testing.T) {
	rt, st := contractTables(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	hj, err := NewBatchHashJoin(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
		[]relation.Attr{relation.A("R", "k")}, []relation.Attr{relation.A("S", "k")}, nil, InnerMode, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rerr := runCycle(hj, NewExecContext(ctx, nil))
	var re *ResourceError
	if !errors.As(rerr, &re) || re.Kind != DeadlineExceeded {
		t.Fatalf("want DeadlineExceeded, got %v", rerr)
	}
	if !errors.Is(rerr, context.DeadlineExceeded) {
		t.Error("cause must unwrap to context.DeadlineExceeded")
	}
}

// TestMemoryBudgetTrips puts each buffering operator under a 1-row
// budget: the trip must surface as a typed MemoryExceeded error naming
// the operator, and the governor must be fully drained after Close.
func TestMemoryBudgetTrips(t *testing.T) {
	rt, st := contractTables(t)
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	builders := map[string]func(t *testing.T) (Iterator, string){
		"hashjoin": func(t *testing.T) (Iterator, string) {
			h, err := NewBatchHashJoin(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
				[]relation.Attr{rk}, []relation.Attr{sk}, nil, InnerMode, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			return h, "hashjoin"
		},
		"nestedloop": func(t *testing.T) (Iterator, string) {
			n, err := NewBatchNestedLoopJoin(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
				predicate.Eq(rk, sk), InnerMode, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			return n, "nestedloop"
		},
		"goj": func(t *testing.T) (Iterator, string) {
			g, err := NewHashGOJ(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
				[]relation.Attr{rk}, []relation.Attr{sk}, []relation.Attr{rk}, 0)
			if err != nil {
				t.Fatal(err)
			}
			return g, "goj"
		},
		"semireduce": func(t *testing.T) (Iterator, string) {
			s, err := NewBatchSemiReduce(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0), predicate.Eq(rk, sk), 0)
			if err != nil {
				t.Fatal(err)
			}
			return s, "semireduce"
		},
		"semireduce-scan": func(t *testing.T) (Iterator, string) {
			// The non-equi semijoin as lowered: a nested-loop join.
			s, err := NewBatchNestedLoopJoin(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
				predicate.Cmp(predicate.LtOp, predicate.Col(rk), predicate.Col(sk)), SemiMode, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			return s, "nestedloop"
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			it, op := build(t)
			gov := NewGovernor(1, 0)
			err := runCycle(it, NewExecContext(context.Background(), gov))
			var re *ResourceError
			if !errors.As(err, &re) || re.Kind != MemoryExceeded {
				t.Fatalf("want MemoryExceeded, got %v", err)
			}
			if re.Operator != op {
				t.Errorf("tripping operator = %q, want %q", re.Operator, op)
			}
			if gov.UsedRows() != 0 {
				t.Errorf("governor holds %d rows after Close", gov.UsedRows())
			}
		})
	}
}

// TestHashJoinGracefulDegradation: a hash join with a marked index
// fallback must, when its build side trips the budget, serve the same
// bag through the index strategy instead of aborting — in all four join
// modes, at every batch size.
func TestHashJoinGracefulDegradation(t *testing.T) {
	rt, st := contractTables(t)
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	for _, mode := range []JoinMode{InnerMode, LeftOuterMode, SemiMode, AntiMode} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, size := range hashJoinSizes {
				mkJoin := func() *BatchHashJoin {
					h, err := NewBatchHashJoin(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
						[]relation.Attr{rk}, []relation.Attr{sk}, nil, mode, nil, size)
					if err != nil {
						t.Fatal(err)
					}
					return h
				}
				want, err := Collect(mkJoin(), nil)
				if err != nil {
					t.Fatal(err)
				}

				h := mkJoin()
				h.SetFallback(func(left Iterator) (Iterator, error) {
					return NewBatchIndexJoin(left, st, "k", rk, nil, mode, nil, nil, 0)
				})
				gov := NewGovernor(1, 0) // the 4-row build side cannot fit
				got, err := CollectCtx(NewExecContext(context.Background(), gov), h, nil)
				if err != nil {
					t.Fatalf("size %d: degraded run failed: %v", size, err)
				}
				if !want.EqualBag(got) {
					t.Errorf("size %d: degraded bag differs:\nwant (%d rows):\n%vgot (%d rows):\n%v",
						size, want.Len(), want, got.Len(), got)
				}
				if gov.UsedRows() != 0 {
					t.Errorf("size %d: governor holds %d rows after degraded run", size, gov.UsedRows())
				}
				if evs := gov.Events(); len(evs) != 2 || !strings.Contains(evs[1], "degraded to index strategy") {
					t.Errorf("size %d: expected one trip and one degradation event, got %v", size, evs)
				}
			}
		})
	}
}

// TestHashJoinFallbackNotTakenWithoutTrip: with room in the budget the
// fallback must stay dormant.
func TestHashJoinFallbackNotTakenWithoutTrip(t *testing.T) {
	rt, st := contractTables(t)
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	h, err := NewBatchHashJoin(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
		[]relation.Attr{rk}, []relation.Attr{sk}, nil, InnerMode, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.SetFallback(func(left Iterator) (Iterator, error) {
		return NewBatchIndexJoin(left, st, "k", rk, nil, InnerMode, nil, nil, 0)
	})
	gov := NewGovernor(1000, 0)
	if _, err := CollectCtx(NewExecContext(context.Background(), gov), h, nil); err != nil {
		t.Fatal(err)
	}
	if evs := gov.Events(); len(evs) != 0 {
		t.Errorf("fallback must not engage within budget: %v", evs)
	}
}

// TestCollectClosesOnError: Collect must close the iterator on a
// mid-stream error and must propagate a Close error instead of
// swallowing it.
func TestCollectClosesOnError(t *testing.T) {
	rt, _ := contractTables(t)
	fi := faultScan(rt, Fault{FailNext: true, FailAfter: 1}, 0)
	if _, err := Collect(fi, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("mid-stream error lost: %v", err)
	}
	if !fi.Balanced() {
		t.Error("Collect must close the iterator after a mid-stream error")
	}

	cf := faultScan(rt, Fault{FailClose: true}, 0)
	if _, err := Collect(cf, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close error swallowed: %v", err)
	}
}
