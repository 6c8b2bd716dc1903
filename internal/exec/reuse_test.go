//go:build !race

package exec

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// reuseAllocBytes pins what a warm 6,000-row hash join plus semijoin
// filter allocates: operator structs, key lists, the batch adapters and
// the arena's chunk list. The build arena, the index, the key set and
// every batch slab come from the pools. The test allows the measured
// count plus 25 %; a change that allocates build state per query again
// fails here, and one that removes work lowers the constant.
const reuseAllocBytes uint64 = 3600

// TestBatchHashJoinReuseAllocs: with the collector off, a second build
// and drain of a 6,000-row BatchHashJoin and a BatchSemiReduce over the
// same inputs allocates a few kilobytes, far below the cold first run.
func TestBatchHashJoinReuseAllocs(t *testing.T) {
	const rows = 6000
	left := relation.New(relation.SchemeOf("R", "a", "b"))
	right := relation.New(relation.SchemeOf("S", "a", "b"))
	for i := int64(0); i < rows; i++ {
		left.MustAppend(relation.Int(i), relation.Int(-i))
		right.MustAppend(relation.Int(i), relation.Int(7*i))
	}
	ra, sa := relation.A("R", "a"), relation.A("S", "a")
	gov := NewGovernor(0, 1<<30)
	ec := NewExecContext(context.Background(), gov)
	drain := func(it Iterator) {
		if err := it.Open(ec); err != nil {
			t.Fatal(err)
		}
		for {
			_, ok, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, err := NewBatchHashJoin(NewRelationScan(left), NewRelationScan(right),
			[]relation.Attr{ra}, []relation.Attr{sa}, nil, InnerMode, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		drain(h)
		s, err := NewBatchSemiReduce(NewRelationScan(left), NewRelationScan(right), predicate.Eq(ra, sa), 0)
		if err != nil {
			t.Fatal(err)
		}
		drain(s)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC() // two collections empty the pools: the first run is cold
	runtime.GC()
	cold := run()
	warm := run()
	t.Logf("cold run %d bytes, warm run %d bytes", cold, warm)
	if limit := reuseAllocBytes * 5 / 4; warm > limit {
		t.Errorf("warm hash join + semijoin filter allocated %d bytes, want <= %d (%d measured, +25%%)", warm, limit, reuseAllocBytes)
	}
	if 10*warm > cold {
		t.Errorf("warm run allocated %d bytes, not far below the cold run's %d", warm, cold)
	}
	if gov.UsedRows() != 0 || gov.UsedBytes() != 0 {
		t.Errorf("governor not drained: rows=%d bytes=%d", gov.UsedRows(), gov.UsedBytes())
	}
}
