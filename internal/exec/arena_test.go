package exec

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"freejoin/internal/relation"
)

// arenaBytes is what the build arena holds: the value chunks, the
// per-row links and the bucket heads, by capacity.
func arenaBytes(h *BatchHashJoin) (values, total uint64) {
	for _, c := range h.chunks {
		values += uint64(cap(c)) * 40 // unsafe.Sizeof(relation.Value{})
	}
	total = values + uint64(cap(h.chunks))*24 + uint64(cap(h.links))*16 + uint64(cap(h.heads))*4
	return values, total
}

// TestBatchHashJoinBuildAllocs: a 6,000-row build allocates at most its
// final arena plus one chunk — nothing is regrown and re-copied — and
// the governor's charge covers every byte of the value arena.
func TestBatchHashJoinBuildAllocs(t *testing.T) {
	const rows = 6000
	left := relation.New(relation.SchemeOf("R", "a", "b"))
	right := relation.New(relation.SchemeOf("S", "a", "b"))
	for i := int64(0); i < rows; i++ {
		left.MustAppend(relation.Int(i), relation.Int(-i))
		right.MustAppend(relation.Int(i), relation.Int(7*i))
	}
	right.MustAppend(relation.Null(), relation.Int(1)) // a null key is charged, never stored
	mk := func() *BatchHashJoin {
		h, err := NewBatchHashJoin(NewRelationScan(left), NewRelationScan(right),
			[]relation.Attr{relation.A("R", "a")}, []relation.Attr{relation.A("S", "a")}, nil, LeftOuterMode, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	chunk := uint64(DefaultBatchSize) * 2 * 40

	gov := NewGovernor(0, 1<<30)
	h := mk()
	// Two collections empty the batch slab pool, so the operator's two
	// batch buffers (its output batch and the right input's adapter
	// batch, one chunk's size) are allocated below whatever the pool
	// held; they are not part of the arena.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := h.Open(NewExecContext(context.Background(), gov)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	defer h.Close()
	if h.BufferedRows() != rows {
		t.Fatalf("arena holds %d rows, want %d", h.BufferedRows(), rows)
	}
	values, total := arenaBytes(h)
	batches := uint64(cap(h.out.vals))*40 + chunk
	if delta := after.TotalAlloc - before.TotalAlloc; delta > total+batches+chunk {
		t.Errorf("build allocated %d bytes: arena %d + batch buffers %d, allowance one %d-byte chunk",
			delta, total, batches, chunk)
	}
	if charged := uint64(gov.UsedBytes()); charged < values {
		t.Errorf("governor charge %d bytes does not cover the %d-byte value arena", charged, values)
	}
}

// BenchmarkBatchHashJoin: build and probe on unique int keys, and on a
// duplicate-heavy string key (2,000 rows over 20 keys, 200,000 matches),
// where every chain entry goes through the join-key comparison; spilled
// is the unique-key join under a 64 KB budget with spilling on, which
// trips a few batches into the build and runs as a grace hash join.
func BenchmarkBatchHashJoin(b *testing.B) {
	for _, bc := range []struct {
		name     string
		rows, nk int
		key      func(i int) relation.Value
		budget   int64
	}{
		{"int_unique", 6000, 6000, func(i int) relation.Value { return relation.Int(int64(i)) }, 1 << 32},
		{"string_dup", 2000, 20, func(i int) relation.Value { return relation.Str(fmt.Sprintf("customer-key-%012d", i)) }, 1 << 32},
		{"spilled", 6000, 6000, func(i int) relation.Value { return relation.Int(int64(i)) }, 64 << 10},
	} {
		left := relation.New(relation.SchemeOf("R", "a", "b"))
		right := relation.New(relation.SchemeOf("S", "a", "b"))
		for i := 0; i < bc.rows; i++ {
			left.MustAppend(bc.key(i%bc.nk), relation.Int(int64(i)))
			right.MustAppend(bc.key(i%bc.nk), relation.Int(int64(i)))
		}
		b.Run(bc.name, func(b *testing.B) {
			gov := NewGovernor(0, bc.budget)
			ec := NewExecContext(context.Background(), gov)
			ec.EnableSpill(SpillConfig{Dir: b.TempDir()})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, err := NewBatchHashJoin(NewRelationScan(left), NewRelationScan(right),
					[]relation.Attr{relation.A("R", "a")}, []relation.Attr{relation.A("S", "a")}, nil, InnerMode, nil, 0)
				if err != nil {
					b.Fatal(err)
				}
				if err := h.Open(ec); err != nil {
					b.Fatal(err)
				}
				for {
					_, ok, err := h.NextBatch()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
				}
				h.Close()
			}
		})
	}
}
