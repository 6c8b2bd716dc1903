package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestSpoolReaders: the spool's sharing contract over a counting child.
// Readers opened and closed in any order fill once per cycle; an Open
// after the last Close refills; a source error reaches every reader as
// the same error; a memory trip with spill on serves the same rows from
// a run; and the governor (and spill dir) drain.
func TestSpoolReaders(t *testing.T) {
	rt, _ := spillTables(t, 300, 0)
	ref, err := Collect(NewBatchScan(rt, nil, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	// drainAll drains the readers under ec in order, one after the
	// other, or (overlap) after opening them all first, so that each
	// drain's Open is a re-Open of an open reader.
	drainAll := func(t *testing.T, ec *ExecContext, order []int, rs []*SpoolReader, overlap bool) {
		t.Helper()
		for _, i := range order {
			if overlap {
				if err := rs[i].Open(ec); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, i := range order {
			got, err := CollectCtx(ec, rs[i], nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualBag(ref) {
				t.Fatalf("reader %d: %d rows, want %d", i, got.Len(), ref.Len())
			}
		}
	}

	t.Run("fill-once", func(t *testing.T) {
		for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
			for _, size := range hashJoinSizes {
				fi := faultScan(rt, Fault{}, size)
				sp := NewSpool(fi, size)
				rs := []*SpoolReader{sp.Reader(), sp.Reader(), sp.Reader()}
				gov := NewGovernor(0, 0)
				ec := NewExecContext(context.Background(), gov)
				drainAll(t, ec, order, rs, false)
				if fi.OpenCalls != 1 {
					t.Fatalf("order %v size %d: child opened %d times, want 1", order, size, fi.OpenCalls)
				}
				if gov.UsedBytes() != 0 || !fi.Balanced() {
					t.Fatalf("order %v: governor holds %d bytes, child balanced=%v after the last Close",
						order, gov.UsedBytes(), fi.Balanced())
				}
				// A reader Open after the last Close refills.
				drainAll(t, ec, order, rs, true)
				if fi.OpenCalls != 2 {
					t.Fatalf("order %v: child opened %d times after a second cycle, want 2", order, fi.OpenCalls)
				}
				if gov.UsedBytes() != 0 {
					t.Fatalf("governor holds %d bytes after the second cycle", gov.UsedBytes())
				}
			}
		}
	})

	t.Run("charge", func(t *testing.T) {
		// The rows are charged from the fill until the last reader closes.
		sp := NewSpool(NewBatchScan(rt, nil, 0), 7)
		r0, r1 := sp.Reader(), sp.Reader()
		gov := NewGovernor(0, 0)
		ec := NewExecContext(context.Background(), gov)
		if err := r0.Open(ec); err != nil {
			t.Fatal(err)
		}
		held := gov.UsedBytes()
		if held == 0 || gov.UsedRows() != int64(ref.Len()) {
			t.Fatalf("filled spool charges %d rows, %d bytes; want %d rows", gov.UsedRows(), held, ref.Len())
		}
		r0.Close()
		if gov.UsedBytes() != held {
			t.Fatalf("rows released with a reader still to come: %d of %d bytes held", gov.UsedBytes(), held)
		}
		r1.Close()
		if gov.UsedBytes() != 0 {
			t.Fatalf("governor holds %d bytes after the last Close", gov.UsedBytes())
		}
	})

	t.Run("source-error", func(t *testing.T) {
		for _, f := range []Fault{
			{FailOpen: true},
			{FailNext: true, FailAfter: 0},
			{FailNext: true, FailAfter: 100},
		} {
			fi := faultScan(rt, f, 7)
			sp := NewSpool(fi, 7)
			gov := NewGovernor(0, 0)
			ec := NewExecContext(context.Background(), gov)
			rs := []*SpoolReader{sp.Reader(), sp.Reader(), sp.Reader()}
			var first error
			for i, r := range rs {
				err := r.Open(ec)
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("%+v: reader %d Open = %v, want the injected error", f, i, err)
				}
				if first == nil {
					first = err
				} else if err != first {
					t.Fatalf("%+v: reader %d got %v, reader 0 got %v", f, i, err, first)
				}
			}
			if fi.OpenCalls != 1 || !fi.Balanced() || gov.UsedBytes() != 0 {
				t.Fatalf("%+v: child opens=%d balanced=%v, governor %d bytes",
					f, fi.OpenCalls, fi.Balanced(), gov.UsedBytes())
			}
		}
	})

	t.Run("spill", func(t *testing.T) {
		fi := faultScan(rt, Fault{}, 7)
		sp := NewSpool(fi, 7)
		rs := []*SpoolReader{sp.Reader(), sp.Reader(), sp.Reader()}
		ec, gov, dir := spillCtx(t, 512)
		drainAll(t, ec, []int{1, 0, 2}, rs, false)
		if ev := gov.Events(); len(ev) != 2 || !strings.HasPrefix(ev[1], "spool: memory budget trip") {
			t.Errorf("governor events %q, want one trip and one spool spill", ev)
		}
		if fi.OpenCalls != 1 {
			t.Errorf("child opened %d times, want 1", fi.OpenCalls)
		}
		checkSpillDrained(t, gov, dir)
	})

	t.Run("trip-without-spill", func(t *testing.T) {
		sp := NewSpool(NewBatchScan(rt, nil, 0), 7)
		gov := NewGovernor(0, 512)
		ec := NewExecContext(context.Background(), gov)
		for i, r := range []*SpoolReader{sp.Reader(), sp.Reader()} {
			var re *ResourceError
			if err := r.Open(ec); !errors.As(err, &re) || re.Kind != MemoryExceeded {
				t.Fatalf("reader %d: want a MemoryExceeded trip, got %v", i, err)
			}
		}
		if gov.UsedBytes() != 0 {
			t.Errorf("governor holds %d bytes", gov.UsedBytes())
		}
	})

	t.Run("scope", func(t *testing.T) {
		// A reader its consumer never reached (the execution failed
		// first) is closed by the tree's root, which drops the rows.
		fi := faultScan(rt, Fault{}, 7)
		sp := NewSpool(fi, 7)
		root := WithSpools(sp.Reader(), []*Spool{sp})
		sp.Reader() // never opened
		gov := NewGovernor(0, 0)
		got, err := CollectCtx(NewExecContext(context.Background(), gov), root, nil)
		if err != nil || !got.EqualBag(ref) {
			t.Fatalf("collect: %d rows, err %v", got.Len(), err)
		}
		if gov.UsedBytes() != 0 || !fi.Balanced() {
			t.Errorf("governor holds %d bytes, child balanced=%v after the root closed", gov.UsedBytes(), fi.Balanced())
		}
	})
}
