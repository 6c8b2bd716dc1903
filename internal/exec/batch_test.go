package exec

import (
	"context"
	"testing"

	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// Unit coverage for the batch layer itself: the null bitmap, boundary
// batch sizes, the hash join's
// in-place spill, and the single-row stream mode of the nested-loop
// join — with regression tests for the nested-loop join's spill
// lifecycle (re-Open without Close dropping the stale run, and the
// Open-time peek keeping the children balanced across a spill).

// TestBatchNullBitmap checks every append path maintains the bitmap:
// copied rows, concatenated rows, null padding, and in-place moves.
func TestBatchNullBitmap(t *testing.T) {
	sch, err := relation.NewScheme(relation.A("R", "a"), relation.A("R", "b"), relation.A("S", "c"))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(sch, 4)

	b.AppendRow([]relation.Value{relation.Int(1), relation.Null(), relation.Str("x")})
	b.AppendConcat([]relation.Value{relation.Null(), relation.Int(2)}, []relation.Value{relation.Null()})
	b.AppendPad([]relation.Value{relation.Int(3)}) // b, c padded with nulls

	want := [][]bool{
		{false, true, false},
		{true, false, true},
		{false, true, true},
	}
	for i, row := range want {
		for j, null := range row {
			if got := b.IsNull(i, j); got != null {
				t.Errorf("IsNull(%d,%d) = %v, want %v", i, j, got, null)
			}
		}
	}

	// Compaction: moving row 2 over row 1 must rewrite row 1's bits
	// (clearing stale ones), as the batch filter relies on.
	b.MoveRow(1, 2)
	for j, null := range want[2] {
		if got := b.IsNull(1, j); got != null {
			t.Errorf("after MoveRow, IsNull(1,%d) = %v, want %v", j, got, null)
		}
	}

	// Reset clears everything; a fresh append starts from clean bits.
	b.Reset()
	b.AppendRow([]relation.Value{relation.Int(9), relation.Int(9), relation.Str("y")})
	for j := 0; j < 3; j++ {
		if b.IsNull(0, j) {
			t.Errorf("after Reset, IsNull(0,%d) = true on a non-null row", j)
		}
	}
}

// TestBatchScanBoundarySizes drains a table through BatchScan at awkward
// batch sizes (1, a non-divisor of the input length, and one larger
// than the whole input): every batch holds 1..size rows and the bag is
// the table's.
func TestBatchScanBoundarySizes(t *testing.T) {
	rt, _ := contractTables(t)
	for _, size := range []int{1, 2, 3, 100} {
		s := NewBatchScan(rt, nil, size)
		if err := s.Open(nil); err != nil {
			t.Fatal(err)
		}
		var col collected
		for {
			b, ok, err := s.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if b.Len() == 0 || b.Len() > size {
				t.Fatalf("size %d: batch of %d rows", size, b.Len())
			}
			col.add(b)
		}
		got := col.result(s.Scheme())
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !got.EqualBag(rt.Relation()) {
			t.Errorf("size %d: scan bag differs (%d rows, want %d)", size, got.Len(), rt.Relation().Len())
		}
	}
}

// TestBatchHashJoinTripSpills forces the batched build over budget with
// spilling on: the join grace-partitions in place — one trip, one
// degradation, no delegation, the build child opened once — and still
// produces the right bag.
func TestBatchHashJoinTripSpills(t *testing.T) {
	rt, st := contractTables(t)
	rk, sk := relation.A("R", "k"), relation.A("S", "k")
	mk := func(right Iterator) *BatchHashJoin {
		h, err := NewBatchHashJoin(NewBatchScan(rt, nil, 0), right,
			[]relation.Attr{rk}, []relation.Attr{sk}, nil, InnerMode, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ref, err := Collect(mk(NewBatchScan(st, nil, 0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() == 0 {
		t.Fatal("join produced no rows")
	}

	rf := faultScan(st, Fault{}, 2)
	h := mk(rf)
	ec, gov, dir := spillCtx(t, 150)
	got, err := CollectCtx(ec, h, nil)
	if err != nil {
		t.Fatalf("tripped join should spill, not fail: %v", err)
	}
	if !h.SpillInfo().Spilled() {
		t.Fatalf("150-byte budget did not force the grace path: %+v", h.SpillInfo())
	}
	if rf.OpenCalls != 1 {
		t.Errorf("build child opened %d times, want once", rf.OpenCalls)
	}
	if n := countEvents(gov, "grace hash join spilling"); n != 1 {
		t.Errorf("%d grace events, want 1: %v", n, gov.Events())
	}
	if !got.EqualBag(ref) {
		t.Errorf("spilled bag differs: %d rows, want %d", got.Len(), ref.Len())
	}
	checkSpillDrained(t, gov, dir)
}

// TestBatchNestedLoopStreamMode pins the single-driving-row fast path:
// a one-row left input streams the right side without materializing it,
// so even a budget far too small for the right side never trips — in
// every join mode, including the 3VL null-key short-circuit.
func TestBatchNestedLoopStreamMode(t *testing.T) {
	mkRight := func() *relation.Relation {
		rows := make([][]any, 50)
		for i := range rows {
			rows[i] = []any{i % 5}
		}
		return relation.FromRows("S", []string{"k"}, rows...)
	}
	right := mkRight()
	rk, sk := relation.A("R", "k"), relation.A("S", "k")
	key := predicate.Eq(rk, sk)

	cases := []struct {
		name     string
		leftKey  any
		mode     JoinMode
		wantRows int
	}{
		{"inner-match", 2, InnerMode, 10},
		{"inner-miss", 9, InnerMode, 0},
		{"outer-match", 2, LeftOuterMode, 10},
		{"outer-miss", 9, LeftOuterMode, 1},      // null-padded
		{"outer-nullkey", nil, LeftOuterMode, 1}, // 3VL short-circuit
		{"semi-match", 2, SemiMode, 1},
		{"semi-nullkey", nil, SemiMode, 0},
		{"anti-miss", 9, AntiMode, 1},
		{"anti-nullkey", nil, AntiMode, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			left := relation.FromRows("R", []string{"k"}, [][]any{{tc.leftKey}}...)
			n, err := NewBatchNestedLoopJoin(
				NewRelationScan(left), NewRelationScan(right), key, tc.mode, nil, 8)
			if err != nil {
				t.Fatal(err)
			}
			// A 96-byte budget cannot hold the 50-row right side; only
			// the streaming path passes without tripping or spilling.
			gov := NewGovernor(0, 96)
			ec := NewExecContext(context.Background(), gov)
			got, err := CollectCtx(ec, n, nil)
			if err != nil {
				t.Fatalf("stream mode tripped the budget: %v", err)
			}
			if !n.stream {
				t.Fatal("single-row left did not stream")
			}
			if got.Len() != tc.wantRows {
				t.Errorf("rows = %d, want %d\n%v", got.Len(), tc.wantRows, got)
			}
			if gov.UsedBytes() != 0 {
				t.Errorf("governor holds %d bytes after Close", gov.UsedBytes())
			}
		})
	}
}

// TestBatchNestedLoopStreamContract re-runs the iterator contract on a
// streaming-mode join: re-Open yields the same bag and Close is
// idempotent (the stream state must fully reset).
func TestBatchNestedLoopStreamContract(t *testing.T) {
	left := relation.FromRows("R", []string{"k"}, []any{2})
	right := relation.FromRows("S", []string{"k"}, []any{1}, []any{2}, []any{2}, []any{3})
	n, err := NewBatchNestedLoopJoin(
		NewRelationScan(left), NewRelationScan(right),
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")), LeftOuterMode, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := drainBag(t, n)
	if first.Len() != 2 {
		t.Fatalf("first drain: %d rows, want 2", first.Len())
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	second := drainBag(t, n)
	if !first.EqualBag(second) {
		t.Errorf("re-opened streaming join changed its bag:\n%v\nvs\n%v", first, second)
	}
}

// TestBatchReopenDropsStaleSpill: a nested-loop join whose previous
// execution spilled its right input is re-opened WITHOUT an intervening
// Close — the iterator contract allows this — and must drop the stale
// run and its file first, or its spill reservation and run file leak.
func TestBatchReopenDropsStaleSpill(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	n, err := NewBatchNestedLoopJoin(NewBatchScan(rt, &c, 0), NewBatchScan(st, &c, 0),
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")), InnerMode, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	ec, gov, dir := spillCtx(t, 96)

	// Cycle 1: the build trips and spills the right input to a run.
	if err := n.Open(ec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.NextBatch(); err != nil {
		t.Fatal(err)
	}
	if !n.SpillInfo().Spilled() {
		t.Fatal("96-byte budget did not force the spill")
	}

	// Cycle 2: re-Open without Close, drain fully, Close.
	if err := n.Open(ec); err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := n.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	checkSpillDrained(t, gov, dir)
}

// TestBatchPeekThenSpillBalancesChildren: the Open-time peek holds the
// left child open while a memory trip during the right build spills.
// The spill continues over the same open children — each is opened
// once and closed once (audited by the fault iterator's lifecycle
// counters).
func TestBatchPeekThenSpillBalancesChildren(t *testing.T) {
	rt, st := contractTables(t)
	lf := faultScan(rt, Fault{}, 2)
	rf := faultScan(st, Fault{}, 2)
	n, err := NewBatchNestedLoopJoin(lf, rf,
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")), InnerMode, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	ec, gov, dir := spillCtx(t, 96)
	if _, err := CollectCtx(ec, n, nil); err != nil {
		t.Fatal(err)
	}
	if !n.SpillInfo().Spilled() {
		t.Fatal("96-byte budget did not force the spill")
	}
	for name, f := range map[string]*FaultIterator{"left": lf, "right": rf} {
		if f.OpenCalls != 1 || !f.Balanced() {
			t.Errorf("%s child: opens=%d closes=%d, want one balanced open", name, f.OpenCalls, f.CloseCalls)
		}
	}
	checkSpillDrained(t, gov, dir)
}
