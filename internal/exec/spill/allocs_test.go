//go:build !race

package spill

import (
	"runtime"
	"runtime/debug"
	"testing"

	"freejoin/internal/relation"
)

// TestSpillRoundTripAllocs: once the block pool is warm, writing a run
// of several blocks and reading it back allocates the writer, the run,
// the reader and the extent list, and no block buffer: the writer's
// buffer and the reader's window come from the pool and go back to it.
// (The race detector's sync.Pool drops puts at random, so the test does
// not run under -race.)
func TestSpillRoundTripAllocs(t *testing.T) {
	f := newFile(t, spillCtx(t, nil))
	rows := intRows(2000)
	var dst []relation.Value
	roundTrip := func() {
		w := f.NewWriter()
		for _, row := range rows {
			if err := w.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		rd := run.Open()
		for {
			var ok bool
			if dst, ok, err = rd.AppendNext(dst[:0]); err != nil {
				t.Fatal(err)
			} else if !ok {
				break
			}
		}
		rd.Close()
		run.Drop()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	roundTrip()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, roundTrip)
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / 21 // AllocsPerRun adds a warm-up run
	t.Logf("%.0f allocations, %d bytes per round trip", allocs, perRun)
	if allocs > 4 {
		t.Errorf("warm round trip: %.0f allocations, want <= 4 (writer, extents, run, reader)", allocs)
	}
	if perRun >= BlockSize {
		t.Errorf("warm round trip allocated %d bytes, as much as a block buffer (%d)", perRun, BlockSize)
	}
}
