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
const hitPathAllocs = 56

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
