package spill

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"freejoin/internal/relation"
	"freejoin/internal/resource"
)

func randomValue(rnd *rand.Rand) relation.Value {
	switch rnd.Intn(6) {
	case 0:
		return relation.Null()
	case 1:
		return relation.Bool(rnd.Intn(2) == 0)
	case 2:
		return relation.Int(rnd.Int63() - rnd.Int63())
	case 3:
		return relation.Float(math.Float64frombits(rnd.Uint64()))
	case 4:
		return relation.Str("")
	default:
		b := make([]byte, rnd.Intn(40))
		rnd.Read(b)
		return relation.Str(string(b))
	}
}

// identical is Value.Identical plus bit-exact NaN equality (NaN != NaN
// under ==, but the codec must still round-trip the bits).
func identical(a, b relation.Value) bool {
	if a.Kind() == relation.KindFloat && b.Kind() == relation.KindFloat {
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	}
	return a.Identical(b)
}

func spillCtx(t *testing.T, gov *resource.Governor) *resource.ExecContext {
	t.Helper()
	ec := resource.NewContext(nil, gov)
	ec.EnableSpill(resource.SpillConfig{Dir: t.TempDir()})
	return ec
}

// newFile creates a spill file that the test closes on cleanup.
func newFile(t *testing.T, ec *resource.ExecContext) *File {
	t.Helper()
	f, err := Create(ec, "test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// Every value kind must round-trip exactly through a run, including NaN
// floats, empty and binary strings, zero-arity rows, and rows that
// straddle a block boundary or outgrow a whole block.
func TestRunRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(27))
	ec := spillCtx(t, nil)
	f := newFile(t, ec)
	var want [][]relation.Value
	w := f.NewWriter()
	for i := 0; i < 500; i++ {
		row := make([]relation.Value, rnd.Intn(6))
		for j := range row {
			row[j] = randomValue(rnd)
		}
		if i%97 == 0 {
			row = append(row, relation.Str(string(make([]byte, BlockSize+rnd.Intn(3*BlockSize)))))
		}
		if err := w.Append(row); err != nil {
			t.Fatal(err)
		}
		want = append(want, row)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if run.Rows != int64(len(want)) {
		t.Fatalf("run.Rows = %d, want %d", run.Rows, len(want))
	}
	// Two sequential scans — a fresh reader decoding into new slices and
	// a rewound one reusing a buffer — must see the full content.
	rd := run.Open()
	for scan := 0; scan < 2; scan++ {
		var buf []relation.Value
		for i, wrow := range want {
			var row []relation.Value
			var ok bool
			if scan == 0 {
				row, ok, err = rd.AppendNext(nil)
			} else {
				buf, ok, err = rd.AppendNext(buf[:0])
				row = buf
			}
			if err != nil || !ok {
				t.Fatalf("scan %d row %d: ok=%v err=%v", scan, i, ok, err)
			}
			if len(row) != len(wrow) {
				t.Fatalf("scan %d row %d: arity %d, want %d", scan, i, len(row), len(wrow))
			}
			for j := range row {
				if !identical(row[j], wrow[j]) {
					t.Fatalf("scan %d row %d col %d: %v (%s), want %v (%s)",
						scan, i, j, row[j], row[j].Kind(), wrow[j], wrow[j].Kind())
				}
			}
		}
		if _, ok, err := rd.AppendNext(nil); ok || err != nil {
			t.Fatalf("scan %d: expected clean EOF, ok=%v err=%v", scan, ok, err)
		}
		rd.Rewind()
	}
	run.Drop()
}

// The file charges the spill budget as it grows, at flush time: a
// buffered row costs nothing yet, a flush past the budget surfaces a
// typed SpillExceeded with nothing charged, and Close releases the rest.
func TestSpillBudget(t *testing.T) {
	gov := resource.NewGovernor(0, 0)
	gov.SetSpillLimit(64)
	ec := spillCtx(t, gov)
	f := newFile(t, ec)

	row := []relation.Value{relation.Str("0123456789012345678901234567890123456789")}
	w := f.NewWriter()
	for i := 0; i < 2; i++ {
		if err := w.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if got := gov.UsedSpillBytes(); got != 0 {
		t.Fatalf("buffered rows charged %d spill bytes before any flush", got)
	}
	_, err := w.Finish()
	var re *resource.ResourceError
	if !errors.As(err, &re) || re.Kind != resource.SpillExceeded {
		t.Fatalf("Finish past the budget = %v, want SpillExceeded", err)
	}
	w.Abort() // no-op: Finish aborted already
	if got := gov.UsedSpillBytes(); got != 0 {
		t.Fatalf("after the failed flush: %d spill bytes still held", got)
	}

	// Within budget: the charge equals the run's bytes and outlives Drop —
	// the extent stays in the file for reuse — until Close.
	w = f.NewWriter()
	if err := w.Append(row); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := gov.UsedSpillBytes(); got != run.Bytes {
		t.Fatalf("after Finish: %d spill bytes held, want %d", got, run.Bytes)
	}
	run.Drop()
	run.Drop() // idempotent
	if got := gov.UsedSpillBytes(); got != run.Bytes {
		t.Fatalf("after Drop: %d spill bytes held, want %d until Close", got, run.Bytes)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close() // idempotent
	if got := gov.UsedSpillBytes(); got != 0 {
		t.Fatalf("after Close: %d spill bytes still held", got)
	}
}

// TestSpillFileReusesExtents: dropped and aborted runs hand their extents
// to later writers, so a file whose live data stays small does not grow
// however many runs cycle through it, and its length on disk always
// equals its spill charge.
func TestSpillFileReusesExtents(t *testing.T) {
	gov := resource.NewGovernor(0, 0)
	ec := spillCtx(t, gov)
	f := newFile(t, ec)
	rnd := rand.New(rand.NewSource(3))
	var live []*Run
	var peak int64
	for i := 0; i < 200; i++ {
		w := f.NewWriter()
		for j := rnd.Intn(300); j > 0; j-- {
			if err := w.Append([]relation.Value{relation.Int(rnd.Int63()), relation.Str("payload")}); err != nil {
				t.Fatal(err)
			}
		}
		if i%5 == 4 {
			w.Abort()
			continue
		}
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, run)
		if len(live) > 3 {
			live[0].Drop()
			live = live[1:]
		}
		info, err := os.Stat(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != gov.UsedSpillBytes() {
			t.Fatalf("run %d: file holds %d bytes, spill charge is %d", i, info.Size(), gov.UsedSpillBytes())
		}
		peak = max(peak, info.Size())
	}
	// At most four runs of at most ~300 rows (~20 bytes each) are live at
	// once; without reuse 160 runs would have grown the file ~40x that.
	if limit := int64(5 * 300 * 20); peak > limit {
		t.Errorf("file grew to %d bytes; reuse should keep it under %d", peak, limit)
	}
	for _, run := range live {
		rd := run.Open()
		for n := int64(0); ; n++ {
			_, ok, err := rd.AppendNext(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if n != run.Rows {
					t.Fatalf("reread %d rows, want %d", n, run.Rows)
				}
				break
			}
		}
	}
}

// One file lives in the configured directory however many runs it holds,
// survives Drop and Abort, and is gone after Close — the temp-dir leak
// check the make targets rely on.
func TestSpillFileLifecycle(t *testing.T) {
	dir := t.TempDir()
	ec := resource.NewContext(nil, nil)
	ec.EnableSpill(resource.SpillConfig{Dir: dir})

	files := func() []string {
		m, err := filepath.Glob(filepath.Join(dir, "ojspill-*"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	f, err := Create(ec, "test")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w := f.NewWriter()
		if err := w.Append([]relation.Value{relation.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		w.Abort() // no-op after Finish: must not free the sealed run
		if row, ok, err := run.Open().AppendNext(nil); !ok || err != nil || row[0].AsInt() != int64(i) {
			t.Fatalf("run %d reads back %v (ok=%v err=%v)", i, row, ok, err)
		}
		run.Drop()
	}
	f.NewWriter().Abort()
	if len(files()) != 1 {
		t.Fatalf("expected 1 spill file, got %v", files())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if len(files()) != 0 {
		t.Fatalf("expected no spill files after Close, got %v", files())
	}
}

// A truncated run surfaces a decode error instead of a silent short read.
func TestTruncatedRun(t *testing.T) {
	ec := spillCtx(t, nil)
	f := newFile(t, ec)
	w := f.NewWriter()
	if err := w.Append([]relation.Value{relation.Str("hello world")}); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(f.Name(), run.Bytes-4); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := run.Open().AppendNext(nil); err == nil {
		t.Fatalf("truncated run read: ok=%v, want error", ok)
	}
}

// A spill directory that does not exist yet must be created on first
// use, not surface as an abort mid-query.
func TestWriterCreatesMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not", "yet", "created")
	ec := resource.NewContext(nil, nil)
	ec.EnableSpill(resource.SpillConfig{Dir: dir})
	f, err := Create(ec, "test")
	if err != nil {
		t.Fatalf("Create into a missing dir: %v", err)
	}
	w := f.NewWriter()
	if err := w.Append([]relation.Value{relation.Int(1)}); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := run.Open().AppendNext(nil); err != nil || !ok {
		t.Fatalf("AppendNext: ok=%v err=%v", ok, err)
	}
	f.Close()
	if files, _ := filepath.Glob(filepath.Join(dir, "ojspill-*")); len(files) != 0 {
		t.Fatalf("spill files leaked: %v", files)
	}
	_ = os.RemoveAll(dir)
}

// Startup sweep: run files orphaned by a dead process (old mtime) are
// removed; fresh files — possibly owned by a live process sharing the
// directory — and non-spill files survive.
func TestSweepStale(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, age time.Duration) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(-age)
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stale1 := mk(Prefix+"dead1.run", 2*time.Hour)
	stale2 := mk(Prefix+"dead2.run", 90*time.Minute)
	fresh := mk(Prefix+"live.run", time.Minute)
	other := mk("unrelated.dat", 3*time.Hour)

	n, err := SweepStale(dir, 0) // 0 = DefaultStaleAge (1h)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("swept %d files; want 2", n)
	}
	for _, gone := range []string{stale1, stale2} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("%s survived the sweep", gone)
		}
	}
	for _, kept := range []string{fresh, other} {
		if _, err := os.Stat(kept); err != nil {
			t.Errorf("%s was wrongly swept: %v", kept, err)
		}
	}
	// A second sweep finds nothing; a missing directory is not an error.
	if n, err := SweepStale(dir, 0); err != nil || n != 0 {
		t.Fatalf("re-sweep = (%d, %v); want (0, nil)", n, err)
	}
	if n, err := SweepStale(filepath.Join(dir, "nope"), 0); err != nil || n != 0 {
		t.Fatalf("missing-dir sweep = (%d, %v); want (0, nil)", n, err)
	}
	// An explicit age overrides the default: everything older than 30s.
	mkOld := mk(Prefix+"recent.run", 10*time.Minute)
	if n, err := SweepStale(dir, 30*time.Second); err != nil || n != 2 {
		t.Fatalf("aged sweep = (%d, %v); want (2, nil) [%s, %s]", n, err, fresh, mkOld)
	}
}
