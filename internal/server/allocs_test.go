//go:build !race

package server

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
)

// hitPathAllocs pins the allocations of one served statement-cache hit:
// a repeated three-relation nice query through Session.SafeExec, with
// the collector off so sync.Pool reuse is deterministic. The test allows
// the measured count plus 5 %; a change that adds work to the hit path
// fails here, and one that removes work lowers the constant.
const hitPathAllocs = 54

func TestHitPathAllocations(t *testing.T) {
	_, s := stmtCore(t, Config{})
	ctx := context.Background()
	mustExec(t, s, stmtQuery)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warm, n = 200, 2000
	for i := 0; i < warm; i++ {
		s.SafeExec(ctx, stmtQuery)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if r := s.SafeExec(ctx, stmtQuery); r.Cache != "hit" {
			t.Fatalf("repeat %d: cache = %q, want hit", i, r.Cache)
		}
	}
	runtime.ReadMemStats(&after)
	perQuery := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.2f allocs per hit", perQuery)
	if limit := hitPathAllocs * 1.05; perQuery > limit {
		t.Fatalf("%.2f allocs per statement hit, want <= %.1f (%d measured, +5%%)", perQuery, limit, hitPathAllocs)
	}
}

// wideResultBytes is half of what one served 6,000-row outerjoin
// allocated while the executor copied every output batch into a fresh
// slab and regrew the row list, and the session dropped the result
// after rendering it (1.77 MB per query).
const wideResultBytes = 1770 << 10 / 2

// TestWideResultAllocations: a repeated 6,000 x 4 outerjoin served
// through Session.Exec allocates at most half of that: the result's
// slabs and row list come from the executor's pools and go back once
// Output is rendered.
func TestWideResultAllocations(t *testing.T) {
	s := NewSession(wideCore(t))
	ctx := context.Background()
	line := "query " + wideQueries[0]
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		mustExec(t, s, line)
	}
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if r := s.Exec(ctx, line); !r.OK || r.Rows != 6000 {
			t.Fatalf("repeat %d: ok=%v rows=%d %s", i, r.OK, r.Rows, r.Error)
		}
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes, %d allocations per query", perQuery, (after.Mallocs-before.Mallocs)/n)
	if perQuery > wideResultBytes {
		t.Fatalf("served 6,000-row outerjoin allocated %d bytes per query, want <= %d", perQuery, wideResultBytes)
	}
}
