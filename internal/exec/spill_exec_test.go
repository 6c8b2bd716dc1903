package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"freejoin/internal/obs"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Spill-to-disk correctness: every blocking operator run under a byte
// budget that previously produced MemoryExceeded must now complete by
// spilling, produce a bag identical to the unbudgeted run, report its
// spill activity through SpillStats, return every spill-budget byte,
// and leave no run files behind.

// spillCtx builds a governed context with a tiny byte budget and
// spilling directed at a per-test temp dir.
func spillCtx(t *testing.T, limitBytes int64) (*ExecContext, *Governor, string) {
	t.Helper()
	dir := t.TempDir()
	gov := NewGovernor(0, limitBytes)
	ec := NewExecContext(context.Background(), gov)
	ec.EnableSpill(SpillConfig{Dir: dir})
	return ec, gov, dir
}

// checkSpillDrained asserts the post-Close spill obligations: memory and
// spill budgets fully returned, no ojspill-* files left in dir.
func checkSpillDrained(t *testing.T, gov *Governor, dir string) {
	t.Helper()
	if n := gov.UsedRows(); n != 0 {
		t.Errorf("governor holds %d rows after Close", n)
	}
	if n := gov.UsedBytes(); n != 0 {
		t.Errorf("governor holds %d bytes after Close", n)
	}
	if n := gov.UsedSpillBytes(); n != 0 {
		t.Errorf("governor holds %d spill bytes after Close", n)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ojspill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("%d run files leaked in %s: %v", len(files), dir, files)
	}
}

// spillTables builds R(k,v) and S(k,w) with duplicate keys, nulls, and
// enough rows that a few-hundred-byte budget cannot hold either side.
func spillTables(t *testing.T, nr, ns int) (*storage.Table, *storage.Table) {
	t.Helper()
	rnd := rand.New(rand.NewSource(41))
	r := relation.New(relation.SchemeOf("R", "k", "v"))
	for i := 0; i < nr; i++ {
		k := relation.Int(int64(rnd.Intn(12)))
		if rnd.Intn(9) == 0 {
			k = relation.Null()
		}
		r.AppendRaw([]relation.Value{k, relation.Int(int64(i))})
	}
	s := relation.New(relation.SchemeOf("S", "k", "w"))
	for i := 0; i < ns; i++ {
		k := relation.Int(int64(rnd.Intn(12)))
		if rnd.Intn(9) == 0 {
			k = relation.Null()
		}
		s.AppendRaw([]relation.Value{k, relation.Str("w" + string(rune('a'+i%26)))})
	}
	return storage.NewTable("R", r), storage.NewTable("S", s)
}

// spiller digs the operator out of wrappers to read its SpillStats.
func spillInfo(t *testing.T, it Iterator) SpillStats {
	t.Helper()
	sp, ok := it.(Spiller)
	if !ok {
		t.Fatalf("%T does not implement Spiller", it)
	}
	return sp.SpillInfo()
}

// hashJoinOf returns a constructor of fresh hash joins R.k = S.k.
func hashJoinOf(t *testing.T, rt, st *storage.Table, mode JoinMode, size int) func() *BatchHashJoin {
	return func() *BatchHashJoin {
		t.Helper()
		h, err := NewBatchHashJoin(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
			[]relation.Attr{relation.A("R", "k")}, []relation.Attr{relation.A("S", "k")}, nil, mode, nil, size)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
}

// countEvents counts governor events containing substr.
func countEvents(gov *Governor, substr string) int {
	n := 0
	for _, ev := range gov.Events() {
		if strings.Contains(ev, substr) {
			n++
		}
	}
	return n
}

// TestGraceHashJoinSpill: in every mode and at every batch size, a build
// that trips a 600-byte budget partitions natively — one trip, one
// "spilling to 8 partitions" event, no second build — and produces the
// in-memory bag, null-key probe rows included (spillTables has them on
// both sides: LeftOuter pads and Anti emits them from partition 0).
func TestGraceHashJoinSpill(t *testing.T) {
	rt, st := spillTables(t, 300, 300)
	for _, mode := range []JoinMode{InnerMode, LeftOuterMode, SemiMode, AntiMode} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, size := range hashJoinSizes {
				mk := hashJoinOf(t, rt, st, mode, size)
				want, err := Collect(mk(), nil)
				if err != nil {
					t.Fatal(err)
				}

				ec, gov, dir := spillCtx(t, 600)
				h := mk()
				got, err := CollectCtx(ec, h, nil)
				if err != nil {
					t.Fatalf("size %d: grace hash join failed: %v", size, err)
				}
				if !want.EqualBag(got) {
					t.Errorf("size %d: grace bag differs: want %d rows, got %d\nwant:\n%vgot:\n%v",
						size, want.Len(), got.Len(), want, got)
				}
				sp := h.SpillInfo()
				if !sp.Spilled() || sp.Partitions == 0 {
					t.Errorf("size %d: grace join should report runs and partitions, got %+v", size, sp)
				}
				checkSpillDrained(t, gov, dir)
				if n := countEvents(gov, "grace hash join spilling to 8 partitions"); n != 1 {
					t.Errorf("size %d: %d grace degradation events, want 1: %v", size, n, gov.Events())
				}
				if n := countEvents(gov, "delegating"); n != 0 {
					t.Errorf("size %d: the grace join delegated: %v", size, gov.Events())
				}
			}
		})
	}
}

// TestGraceHashJoinSkew: every row shares one key, so no amount of
// re-partitioning shrinks the partition. Each level re-partitions down to
// the recursion bound, where the pair goes to the nested-loop join over
// its runs — and the join still completes correctly in every mode.
func TestGraceHashJoinSkew(t *testing.T) {
	r := relation.New(relation.SchemeOf("R", "k", "v"))
	s := relation.New(relation.SchemeOf("S", "k", "w"))
	for i := 0; i < 120; i++ {
		r.AppendRaw([]relation.Value{relation.Int(7), relation.Int(int64(i))})
		s.AppendRaw([]relation.Value{relation.Int(7), relation.Int(int64(i * 2))})
	}
	r.AppendRaw([]relation.Value{relation.Null(), relation.Int(-1)}) // padded / emitted at the bound too
	rt, st := storage.NewTable("R", r), storage.NewTable("S", s)
	for _, mode := range []JoinMode{InnerMode, LeftOuterMode, SemiMode, AntiMode} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, size := range hashJoinSizes {
				mk := hashJoinOf(t, rt, st, mode, size)
				want, err := Collect(mk(), nil)
				if err != nil {
					t.Fatal(err)
				}
				ec, gov, dir := spillCtx(t, 400)
				got, err := CollectCtx(ec, mk(), nil)
				if err != nil {
					t.Fatalf("size %d: skewed grace join failed: %v", size, err)
				}
				if !want.EqualBag(got) {
					t.Errorf("size %d: skewed grace bag differs: want %d rows, got %d", size, want.Len(), got.Len())
				}
				checkSpillDrained(t, gov, dir)
				bound := ec.Spill().Recursion()
				for depth := 1; depth < bound; depth++ {
					if countEvents(gov, fmt.Sprintf("re-partitioning over-budget partition at depth %d", depth)) == 0 {
						t.Errorf("size %d: no re-partition at depth %d: %v", size, depth, gov.Events())
					}
				}
				if countEvents(gov, fmt.Sprintf("at depth %d, nested-loop join", bound)) == 0 {
					t.Errorf("size %d: the skewed pair never reached the nested-loop join: %v", size, gov.Events())
				}
			}
		})
	}
}

// TestGraceHashJoinRepartition: uniform keys under a fanout of 4 and a
// budget a quarter of the build cannot hold — the first-level pairs trip
// again and re-partition one level deeper, where they fit; nothing needs
// the nested-loop join.
func TestGraceHashJoinRepartition(t *testing.T) {
	r := relation.New(relation.SchemeOf("R", "k", "v"))
	s := relation.New(relation.SchemeOf("S", "k", "w"))
	for i := 0; i < 400; i++ {
		r.AppendRaw([]relation.Value{relation.Int(int64(i)), relation.Int(int64(i))})
		s.AppendRaw([]relation.Value{relation.Int(int64(399 - i)), relation.Int(int64(i))})
	}
	rt, st := storage.NewTable("R", r), storage.NewTable("S", s)
	for _, size := range hashJoinSizes {
		mk := hashJoinOf(t, rt, st, InnerMode, size)
		want, err := Collect(mk(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ec, gov, dir := spillCtx(t, 60*80)
		ec.EnableSpill(SpillConfig{Dir: dir, Partitions: 4})
		h := mk()
		got, err := CollectCtx(ec, h, nil)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !want.EqualBag(got) {
			t.Errorf("size %d: re-partitioned bag differs: want %d rows, got %d", size, want.Len(), got.Len())
		}
		if sp := h.SpillInfo(); sp.Partitions <= 4 {
			t.Errorf("size %d: no re-partitioning counted: %+v", size, sp)
		}
		if countEvents(gov, "re-partitioning") == 0 || countEvents(gov, "nested-loop") != 0 {
			t.Errorf("size %d: want re-partitions and no nested-loop pair: %v", size, gov.Events())
		}
		checkSpillDrained(t, gov, dir)
	}
}

// TestGraceHashJoinSpillExceeded: the grace partitions are charged to
// the spill budget; one too small for them aborts with a typed
// SpillExceeded and still tears down every file and reservation.
func TestGraceHashJoinSpillExceeded(t *testing.T) {
	rt, st := spillTables(t, 300, 300)
	for _, size := range hashJoinSizes {
		ec, gov, dir := spillCtx(t, 600)
		gov.SetSpillLimit(256)
		h := hashJoinOf(t, rt, st, LeftOuterMode, size)()
		_, err := CollectCtx(ec, h, nil)
		var re *ResourceError
		if !errors.As(err, &re) || re.Kind != SpillExceeded || re.Operator != "hashjoin" {
			t.Fatalf("size %d: want a hashjoin SpillExceeded, got %v", size, err)
		}
		checkSpillDrained(t, gov, dir)
	}
}

// TestGraceHashJoinReopenWithoutClose: a join re-opened mid-stream after
// spilling — the iterator contract allows it — drops the stale spill
// file and pairs and produces the full bag again.
func TestGraceHashJoinReopenWithoutClose(t *testing.T) {
	rt, st := spillTables(t, 300, 300)
	for _, size := range hashJoinSizes {
		mk := hashJoinOf(t, rt, st, AntiMode, size)
		want, err := Collect(mk(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ec, gov, dir := spillCtx(t, 600)
		h := mk()
		if err := h.Open(ec); err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.NextBatch(); err != nil {
			t.Fatal(err)
		}
		if !h.SpillInfo().Spilled() {
			t.Fatalf("size %d: the first cycle did not spill", size)
		}
		got, err := CollectCtx(ec, h, nil) // re-Opens without a Close
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualBag(got) {
			t.Errorf("size %d: re-opened bag differs: want %d rows, got %d", size, want.Len(), got.Len())
		}
		checkSpillDrained(t, gov, dir)
	}
}

// diskWatch wraps a child and, at every batch it yields, checks the
// spill directory's disk bound: at most one ojspill-* file, never longer than
// the governor's spill charge.
type diskWatch struct {
	Iterator
	t     *testing.T
	gov   *Governor
	dir   string
	files int // most files seen at once
}

func (w *diskWatch) NextBatch() (*Batch, bool, error) {
	w.check()
	return w.Iterator.NextBatch()
}

func (w *diskWatch) check() int {
	w.t.Helper()
	files, err := filepath.Glob(filepath.Join(w.dir, "ojspill-*"))
	if err != nil {
		w.t.Fatal(err)
	}
	w.files = max(w.files, len(files))
	if len(files) > 1 {
		w.t.Fatalf("%d spill files at once: %v", len(files), files)
	}
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			w.t.Fatal(err)
		}
		if info.Size() > w.gov.UsedSpillBytes() {
			w.t.Fatalf("spill file holds %d bytes, only %d charged", info.Size(), w.gov.UsedSpillBytes())
		}
	}
	return len(files)
}

// TestGraceHashJoinSpillOneFile: the whole grace join — partitioning,
// and the re-partitioning of pairs that trip again — lives in one spill
// file that never outgrows its spill charge, checked at every input
// batch and after every output batch; nothing remains after Close.
func TestGraceHashJoinSpillOneFile(t *testing.T) {
	rt, st := spillTables(t, 300, 300)
	for _, size := range hashJoinSizes {
		ec, gov, dir := spillCtx(t, 400)
		lw := &diskWatch{Iterator: NewBatchScan(rt, nil, size), t: t, gov: gov, dir: dir}
		rw := &diskWatch{Iterator: NewBatchScan(st, nil, size), t: t, gov: gov, dir: dir}
		h, err := NewBatchHashJoin(lw, rw, []relation.Attr{relation.A("R", "k")},
			[]relation.Attr{relation.A("S", "k")}, nil, InnerMode, nil, size)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Open(ec); err != nil {
			t.Fatal(err)
		}
		for {
			if lw.check() != 1 {
				t.Fatalf("size %d: the spilled join holds no spill file", size)
			}
			_, ok, err := h.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if countEvents(gov, "re-partitioning") == 0 {
			t.Errorf("size %d: no pair re-partitioned: %v", size, gov.Events())
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		checkSpillDrained(t, gov, dir)
	}
}

// TestGraceHashJoinSpillFaults injects storage faults into a spilling
// join at each stage — the build before the trip, the partitioning of the
// build and probe streams after it, and a cancellation while the pairs
// are joined — and requires the error, balanced children, a drained
// governor and no spill file once the join is closed.
func TestGraceHashJoinSpillFaults(t *testing.T) {
	rt, st := spillTables(t, 300, 300)
	for _, tc := range []struct {
		name        string
		left, right Fault
		cancelAt    int // cancel the context after this many output batches
	}{
		{"build", Fault{}, Fault{FailNext: true, FailAfter: 2}, -1},
		{"partition-build", Fault{}, Fault{FailNext: true, FailAfter: 200}, -1},
		{"partition-probe", Fault{FailNext: true, FailAfter: 200}, Fault{}, -1},
		{"partition-close", Fault{FailClose: true}, Fault{}, -1},
		{"probe", Fault{}, Fault{}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, size := range hashJoinSizes {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				dir := t.TempDir()
				gov := NewGovernor(0, 600)
				ec := NewExecContext(ctx, gov)
				ec.EnableSpill(SpillConfig{Dir: dir})
				lf := faultScan(rt, tc.left, size)
				rf := faultScan(st, tc.right, size)
				h, err := NewBatchHashJoin(lf, rf, []relation.Attr{relation.A("R", "k")},
					[]relation.Attr{relation.A("S", "k")}, nil, LeftOuterMode, nil, size)
				if err != nil {
					t.Fatal(err)
				}
				err = h.Open(ec)
				for n := 0; err == nil; n++ {
					if n == tc.cancelAt {
						cancel()
					}
					var ok bool
					if _, ok, err = h.NextBatch(); !ok && err == nil {
						break
					}
				}
				if err == nil {
					t.Fatalf("size %d: the injected fault was swallowed", size)
				}
				var re *ResourceError
				if !errors.Is(err, ErrInjected) && !(errors.As(err, &re) && re.Kind == Cancelled) {
					t.Errorf("size %d: unexpected error %v", size, err)
				}
				h.Close()
				checkInvariants(t, h, []*FaultIterator{lf, rf}, gov)
				checkSpillDrained(t, gov, dir)
			}
		})
	}
}

// TestNestedLoopJoinSpill: in every mode and at every batch size, a
// right input that trips the budget mid-build spills natively — one
// run, one degradation — and the probe's scans of the run return the
// reference algebra's bag, null keys included.
func TestNestedLoopJoinSpill(t *testing.T) {
	rt, st := spillTables(t, 60, 2000)
	pred := predicate.Eq(relation.A("R", "k"), relation.A("S", "k"))
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			want := refFor(t, mode, rt.Relation(), st.Relation(), pred)
			for _, size := range hashJoinSizes {
				n, err := NewBatchNestedLoopJoin(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0), pred, mode, nil, size)
				if err != nil {
					t.Fatal(err)
				}
				// 100KB holds more than one 1024-row build batch of the
				// 164KB right input: the trip comes mid-build at every size.
				ec, gov, dir := spillCtx(t, 100_000)
				deg0 := obs.GovernorDegradations.Value()
				got, err := CollectCtx(ec, n, nil)
				if err != nil {
					t.Fatalf("size %d: spilled nested loop failed: %v", size, err)
				}
				if !want.EqualBag(got) {
					t.Errorf("size %d: spilled NL bag differs: want %d rows, got %d", size, want.Len(), got.Len())
				}
				if sp := n.SpillInfo(); sp.Runs != 1 {
					t.Errorf("size %d: want one spilled run, got %+v", size, sp)
				}
				if d := obs.GovernorDegradations.Value() - deg0; d != 1 {
					t.Errorf("size %d: %d degradations for one trip: %v", size, d, gov.Events())
				}
				if n := countEvents(gov, "memory budget exceeded"); n != 1 {
					t.Errorf("size %d: %d trips, want 1: %v", size, n, gov.Events())
				}
				checkSpillDrained(t, gov, dir)
			}
		})
	}
}

// TestGraceHashJoinOverBoundScansInPlace: past the recursion bound a
// skewed partition pair is joined by a nested-loop join over its two
// runs. The join scans the build run where it is: every run written is
// a grace partition's, and the nested-loop join spills nothing.
func TestGraceHashJoinOverBoundScansInPlace(t *testing.T) {
	r := relation.New(relation.SchemeOf("R", "k", "v"))
	s := relation.New(relation.SchemeOf("S", "k", "w"))
	for i := 0; i < 120; i++ {
		r.AppendRaw([]relation.Value{relation.Int(7), relation.Int(int64(i))})
		s.AppendRaw([]relation.Value{relation.Int(7), relation.Int(int64(i * 2))})
	}
	rt, st := storage.NewTable("R", r), storage.NewTable("S", s)
	key := predicate.Eq(relation.A("R", "k"), relation.A("S", "k"))
	for _, size := range hashJoinSizes {
		runs0 := obs.SpillRuns.Value()
		ec, gov, dir := spillCtx(t, 400)
		h := hashJoinOf(t, rt, st, InnerMode, size)()
		got, err := CollectCtx(ec, h, nil)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if want := refFor(t, InnerMode, r, s, key); !want.EqualBag(got) {
			t.Errorf("size %d: bag differs: want %d rows, got %d", size, want.Len(), got.Len())
		}
		if countEvents(gov, "nested-loop join over its runs") == 0 {
			t.Fatalf("size %d: no pair reached the nested-loop join: %v", size, gov.Events())
		}
		if n := countEvents(gov, "spilling inner input"); n != 0 {
			t.Errorf("size %d: the nested-loop join re-spilled a run: %v", size, gov.Events())
		}
		if written, grace := obs.SpillRuns.Value()-runs0, h.SpillInfo().Runs; written != grace {
			t.Errorf("size %d: %d runs written, %d of them grace partitions", size, written, grace)
		}
		checkSpillDrained(t, gov, dir)
	}
}

// TestSpillBudgetExceeded: the spill-bytes budget is itself governed;
// when it is too small the run must abort with a typed SpillExceeded
// error and still clean up every file and reservation. The nested-loop
// join's right input trips the memory budget and streams into a single
// run (spillRest), which overruns the spill budget part way.
func TestSpillBudgetExceeded(t *testing.T) {
	rt, st := spillTables(t, 10, 1000)
	n, err := NewBatchNestedLoopJoin(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
		predicate.Eq(relation.A("R", "k"), relation.A("S", "k")), InnerMode, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ec, gov, dir := spillCtx(t, 512)
	gov.SetSpillLimit(2048) // a fraction of what 1000 inner rows need
	_, cerr := CollectCtx(ec, n, nil)
	var re *ResourceError
	if !errors.As(cerr, &re) || re.Kind != SpillExceeded || re.Operator != "nestedloop" {
		t.Fatalf("want SpillExceeded in nestedloop, got %v", cerr)
	}
	checkSpillDrained(t, gov, dir)
}

// TestFailedOpenDrainsGovernor is the regression for the hash-join
// partial-build leak: when any child fault makes an operator's Open
// fail, every governor charge taken during that Open must already be
// released when Open returns — before Close runs — across the whole
// operator inventory and every child position.
func TestFailedOpenDrainsGovernor(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	faults := []struct {
		name string
		f    Fault
	}{
		{"open", Fault{FailOpen: true}},
		{"next-first", Fault{FailNext: true, FailAfter: 0}},
		{"next-midstream", Fault{FailNext: true, FailAfter: 2}},
	}
	for name, fc := range operatorRegistry(t, rt, st, &c) {
		for pos := 0; pos < fc.children; pos++ {
			for _, fault := range faults {
				t.Run(name+"/"+fault.name, func(t *testing.T) {
					ch, _ := buildChildren(rt, st, fc, pos, fault.f)
					it := fc.build(t, ch)
					gov := NewGovernor(0, 0)
					err := it.Open(NewExecContext(context.Background(), gov))
					if err == nil {
						// Streaming operators defer the fault to NextBatch; that
						// path is covered by TestErrorPathContract.
						it.Close()
						return
					}
					if n := gov.UsedRows(); n != 0 {
						t.Errorf("failed Open left %d rows charged before Close", n)
					}
					if n := gov.UsedBytes(); n != 0 {
						t.Errorf("failed Open left %d bytes charged before Close", n)
					}
					it.Close()
					if gov.UsedRows() != 0 || gov.UsedBytes() != 0 {
						t.Error("Close re-acquired or failed to keep governor drained")
					}
				})
			}
		}
	}
}

// TestTripDuringOpenCloseSafe: every buffering operator whose Open (or
// first NextBatch) trips a 1-row budget must survive Close — twice — with
// buffers released and the governor drained: the mid-build trip
// regression.
func TestTripDuringOpenCloseSafe(t *testing.T) {
	rt, st := contractTables(t)
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	builders := map[string]func(t *testing.T) Iterator{
		"nestedloop": func(t *testing.T) Iterator {
			n, err := NewBatchNestedLoopJoin(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
				predicate.Eq(rk, sk), InnerMode, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			return n
		},
		"goj": func(t *testing.T) Iterator {
			g, err := NewHashGOJ(NewBatchScan(rt, nil, 0), NewBatchScan(st, nil, 0),
				[]relation.Attr{rk}, []relation.Attr{sk}, []relation.Attr{rk}, 0)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
	}
	for _, mode := range []JoinMode{InnerMode, LeftOuterMode, SemiMode, AntiMode} {
		for _, size := range hashJoinSizes {
			name := "hashjoin-" + mode.String()
			if size != 1 {
				name += fmt.Sprintf("-%d", size)
			}
			mk := hashJoinOf(t, rt, st, mode, size)
			builders[name] = func(*testing.T) Iterator { return mk() }
		}
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			it := build(t)
			gov := NewGovernor(1, 0)
			err := it.Open(NewExecContext(context.Background(), gov))
			if err == nil {
				// Streaming operators trip at NextBatch instead.
				for {
					_, ok, nerr := it.NextBatch()
					if nerr != nil {
						err = nerr
						break
					}
					if !ok {
						break
					}
				}
			}
			var re *ResourceError
			if !errors.As(err, &re) || re.Kind != MemoryExceeded {
				t.Fatalf("want a MemoryExceeded trip, got %v", err)
			}
			if cerr := it.Close(); cerr != nil {
				t.Fatalf("Close after trip: %v", cerr)
			}
			if cerr := it.Close(); cerr != nil {
				t.Fatalf("second Close after trip: %v", cerr)
			}
			if b, ok := it.(Buffered); ok && b.BufferedRows() != 0 {
				t.Errorf("BufferedRows = %d after Close", b.BufferedRows())
			}
			if gov.UsedRows() != 0 || gov.UsedBytes() != 0 {
				t.Errorf("governor not drained: rows=%d bytes=%d", gov.UsedRows(), gov.UsedBytes())
			}
		})
	}
}

// TestSpillFaultOracle reruns the fault-injection matrix with spilling
// enabled under a tiny byte budget: whatever faults are injected, a
// governed spilled run either fails with the injected error or produces
// exactly the bag of the clean in-memory run — and always tears down
// files and reservations.
func TestSpillFaultOracle(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	faults := []Fault{
		{},
		{FailOpen: true},
		{FailNext: true, FailAfter: 0},
		{FailNext: true, FailAfter: 2},
		{FailClose: true},
		{Prob: 0.4, Seed: 3},
		{Prob: 0.4, Seed: 9},
	}
	for name, fc := range operatorRegistry(t, rt, st, &c) {
		// Clean reference bag, in memory and ungoverned.
		chRef, _ := buildChildren(rt, st, fc, -1, Fault{})
		ref, err := Collect(fc.build(t, chRef), nil)
		if err != nil {
			t.Fatalf("%s: clean run failed: %v", name, err)
		}
		for pos := 0; pos < fc.children; pos++ {
			for fi, fault := range faults {
				t.Run(name, func(t *testing.T) {
					ch, fis := buildChildren(rt, st, fc, pos, fault)
					it := fc.build(t, ch)
					ec, gov, dir := spillCtx(t, 300)
					got, err := CollectCtx(ec, it, nil)
					var re *ResourceError
					if err == nil {
						if !ref.EqualBag(got) {
							t.Errorf("fault %d: spilled bag differs from clean in-memory run\nwant %d rows, got %d",
								fi, ref.Len(), got.Len())
						}
					} else if !errors.Is(err, ErrInjected) &&
						!(errors.As(err, &re) && re.Kind == MemoryExceeded) {
						// Operators without a spill path (hash GOJ) may
						// trip the budget; that is a typed, clean failure,
						// not an oracle violation.
						t.Errorf("fault %d: error is neither injected nor a typed trip: %v", fi, err)
					}
					checkInvariants(t, it, fis, gov)
					checkSpillDrained(t, gov, dir)
				})
			}
		}
	}
}
