package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"freejoin/internal/obs"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Fault injection: a wrapper that makes an iterator fail on demand — on
// Open, on Close, after N rows, or probabilistically from a seeded RNG.
// The error-path contract tests drive every operator over these
// wrappers to prove errors propagate, children are closed, and no
// buffer or charge leaks past a failure.

// ErrInjected is the default error produced by an injected fault.
var ErrInjected = errors.New("exec: injected fault")

// Fault configures where a FaultIterator fails. The zero value injects
// nothing.
type Fault struct {
	// FailOpen makes Open fail (the inner iterator is not opened).
	FailOpen bool
	// FailClose makes Close fail (after closing the inner iterator).
	FailClose bool
	// FailNext makes NextBatch fail once FailAfter rows have been
	// delivered — a batch that would cross the mark is cut short there;
	// FailAfter 0 fails the first NextBatch.
	FailNext  bool
	FailAfter int
	// Prob injects a failure on each NextBatch with this probability,
	// drawn from a rand.Rand seeded with Seed (deterministic per seed).
	Prob float64
	Seed int64
	// Err overrides the injected error; nil means ErrInjected.
	Err error
	// Panic makes a firing fault panic instead of returning an error —
	// the adversarial case the server's per-session panic isolation must
	// absorb: a panic out of an operator's NextBatch mid-execution.
	Panic bool
}

// error mints the injected error; it is called exactly when a
// configured fault fires, so it doubles as the metrics hook. With Panic
// set it never returns.
func (f Fault) error() error {
	obs.FaultInjections.Inc()
	err := f.Err
	if err == nil {
		err = ErrInjected
	}
	if f.Panic {
		panic(fmt.Sprintf("exec: injected panic: %v", err))
	}
	return err
}

// FaultIterator wraps an iterator and injects the configured fault. It
// also audits the caller's error contract: Open/Close call counts are
// recorded, and NextBatch calls arriving after the iterator already
// returned an error are counted as violations instead of producing rows.
type FaultIterator struct {
	inner     Iterator
	fault     Fault
	rng       *rand.Rand
	opened    bool
	failed    bool
	rows      int
	succOpens int

	// OpenCalls and CloseCalls count lifecycle calls across re-opens.
	OpenCalls, CloseCalls int
	// NextAfterError counts contract violations: NextBatch after an
	// error.
	NextAfterError int
}

// NewFaultIterator wraps inner with the fault configuration.
func NewFaultIterator(inner Iterator, f Fault) *FaultIterator {
	fi := &FaultIterator{inner: inner, fault: f}
	if f.Prob > 0 {
		fi.rng = rand.New(rand.NewSource(f.Seed))
	}
	return fi
}

// faultScan returns a fault-injecting scan of t's rows, size rows per
// batch (<= 0: DefaultBatchSize). The scan counts no retrieved tuples.
func faultScan(t *storage.Table, f Fault, size int) *FaultIterator {
	return NewFaultIterator(NewBatchScan(t, nil, size), f)
}

// Scheme implements Iterator.
func (fi *FaultIterator) Scheme() *relation.Scheme { return fi.inner.Scheme() }

// Open implements Iterator.
func (fi *FaultIterator) Open(ec *ExecContext) error {
	fi.OpenCalls++
	fi.failed = false
	fi.rows = 0
	if fi.fault.FailOpen {
		fi.failed = true
		return fmt.Errorf("open %s: %w", fi.inner.Scheme(), fi.fault.error())
	}
	if err := fi.inner.Open(ec); err != nil {
		fi.failed = true
		return err
	}
	fi.opened = true
	fi.succOpens++
	return nil
}

// NextBatch implements Iterator.
func (fi *FaultIterator) NextBatch() (*Batch, bool, error) {
	if fi.failed {
		fi.NextAfterError++
		return nil, false, fi.fault.error()
	}
	if fi.fault.FailNext && fi.rows >= fi.fault.FailAfter {
		fi.failed = true
		return nil, false, fmt.Errorf("next after %d rows: %w", fi.rows, fi.fault.error())
	}
	if fi.rng != nil && fi.rng.Float64() < fi.fault.Prob {
		fi.failed = true
		return nil, false, fmt.Errorf("next (probabilistic): %w", fi.fault.error())
	}
	b, ok, err := fi.inner.NextBatch()
	if err != nil {
		fi.failed = true
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	if fi.fault.FailNext {
		// The caller owns the batch until its next call, so cutting it
		// short is legal; the rows past the mark are never delivered.
		b.Truncate(fi.fault.FailAfter - fi.rows)
	}
	fi.rows += b.Len()
	return b, true, nil
}

// Close implements Iterator. The inner iterator is closed even when the
// fault makes Close itself report failure.
func (fi *FaultIterator) Close() error {
	fi.CloseCalls++
	var err error
	if fi.opened {
		fi.opened = false
		err = fi.inner.Close()
	}
	if fi.fault.FailClose {
		return fmt.Errorf("close %s: %w", fi.inner.Scheme(), fi.fault.error())
	}
	return err
}

// Balanced reports whether every successful Open was matched by at least
// one Close (Close is idempotent, so extra Closes are fine; a missing
// one is a leak; a failed Open acquired nothing and needs none).
func (fi *FaultIterator) Balanced() bool { return !fi.opened && fi.CloseCalls >= fi.succOpens }

func faultTable(t *testing.T) *storage.Table {
	t.Helper()
	r := relation.FromRows("R", []string{"k"}, []any{1}, []any{2}, []any{3}, []any{4})
	return storage.NewTable("R", r)
}

// drainFault opens and drains fi, returning the rows delivered and the
// first error (a Close error included).
func drainFault(fi *FaultIterator) (int, error) {
	if err := fi.Open(nil); err != nil {
		return 0, err
	}
	n := 0
	for {
		b, ok, err := fi.NextBatch()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, fi.Close()
		}
		n += b.Len()
	}
}

func TestFaultNone(t *testing.T) {
	fi := faultScan(faultTable(t), Fault{}, 0)
	n, err := drainFault(fi)
	if err != nil || n != 4 {
		t.Fatalf("clean pass: n=%d err=%v", n, err)
	}
	if !fi.Balanced() {
		t.Error("clean pass must balance Open/Close")
	}
}

func TestFaultOpen(t *testing.T) {
	fi := faultScan(faultTable(t), Fault{FailOpen: true}, 0)
	err := fi.Open(nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("open fault = %v", err)
	}
	if fi.Close() != nil {
		t.Error("close after failed open must succeed (inner never opened)")
	}
}

func TestFaultAfterRows(t *testing.T) {
	fi := faultScan(faultTable(t), Fault{FailNext: true, FailAfter: 2}, 0)
	n, err := drainFault(fi)
	if !errors.Is(err, ErrInjected) || n != 2 {
		t.Fatalf("after-2 fault: n=%d err=%v", n, err)
	}
	// A disciplined caller stops; an undisciplined one is audited.
	if fi.NextAfterError != 0 {
		t.Fatal("no violation yet")
	}
	fi.NextBatch()
	if fi.NextAfterError != 1 {
		t.Error("NextBatch after error must be counted as a violation")
	}
}

// TestFaultAfterRowsSplitsBatch: FailAfter counts rows, not batches — a
// batch that crosses the mark is cut there, at any batch size.
func TestFaultAfterRowsSplitsBatch(t *testing.T) {
	for _, size := range []int{2, DefaultBatchSize} {
		fi := faultScan(faultTable(t), Fault{FailNext: true, FailAfter: 3}, size)
		n, err := drainFault(fi)
		if !errors.Is(err, ErrInjected) || n != 3 {
			t.Errorf("size %d: after-3 fault delivered %d rows, err=%v; want 3 rows and the injected error", size, n, err)
		}
		fi.Close()
		if !fi.Balanced() {
			t.Errorf("size %d: opens=%d closes=%d", size, fi.OpenCalls, fi.CloseCalls)
		}
	}
}

func TestFaultClose(t *testing.T) {
	fi := faultScan(faultTable(t), Fault{FailClose: true}, 0)
	n, err := drainFault(fi)
	if !errors.Is(err, ErrInjected) || n != 4 {
		t.Fatalf("close fault: n=%d err=%v", n, err)
	}
}

func TestFaultProbabilisticDeterminism(t *testing.T) {
	f := Fault{Prob: 0.3, Seed: 42}
	a, aerr := drainFault(faultScan(faultTable(t), f, 1))
	b, berr := drainFault(faultScan(faultTable(t), f, 1))
	if a != b || (aerr == nil) != (berr == nil) {
		t.Errorf("same seed must fail identically: (%d,%v) vs (%d,%v)", a, aerr, b, berr)
	}
	// Prob 1 always fails on the first NextBatch.
	n, err := drainFault(faultScan(faultTable(t), Fault{Prob: 1, Seed: 7}, 0))
	if n != 0 || !errors.Is(err, ErrInjected) {
		t.Errorf("prob=1: n=%d err=%v", n, err)
	}
}

func TestFaultCustomError(t *testing.T) {
	sentinel := errors.New("disk on fire")
	fi := faultScan(faultTable(t), Fault{FailNext: true, Err: sentinel}, 0)
	_, err := drainFault(fi)
	if !errors.Is(err, sentinel) {
		t.Fatalf("custom error not propagated: %v", err)
	}
}

func TestFaultIteratorHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fi := faultScan(faultTable(t), Fault{}, 0)
	if err := fi.Open(NewExecContext(ctx, nil)); err == nil {
		t.Fatal("open under a cancelled context must fail")
	}
}

func TestFaultReOpenResets(t *testing.T) {
	fi := faultScan(faultTable(t), Fault{FailNext: true, FailAfter: 3}, 2)
	n1, err1 := drainFault(fi)
	fi.Close()
	n2, err2 := drainFault(fi)
	fi.Close()
	if n1 != n2 || (err1 == nil) != (err2 == nil) {
		t.Errorf("re-open must reset the row counter: (%d,%v) vs (%d,%v)", n1, err1, n2, err2)
	}
	if !fi.Balanced() {
		t.Error("re-open cycles must stay balanced")
	}
}
