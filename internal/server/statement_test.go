package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"freejoin/internal/obs"
)

// stmtCore builds an in-process core with tables R, S and T (a nice
// three-relation chain over column a) and returns it with one session.
func stmtCore(t *testing.T, cfg Config) (*Core, *Session) {
	t.Helper()
	core, err := NewCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(core)
	for _, line := range []string{
		"table R(a, b) = (1, 10), (2, 20), (3, 30)",
		"table S(a) = (2), (3), (4)",
		"table T(a) = (3), (4), (5)",
	} {
		mustExec(t, s, line)
	}
	return core, s
}

func mustExec(t *testing.T, s *Session, line string) Response {
	t.Helper()
	r := s.SafeExec(context.Background(), line)
	if !r.OK {
		t.Fatalf("%s: %s (%s)", line, r.Error, r.Code)
	}
	return r
}

// wantCache runs line and checks the response's plan-cache outcome.
func wantCache(t *testing.T, s *Session, line, want string) Response {
	t.Helper()
	r := mustExec(t, s, line)
	if r.Cache != want {
		t.Fatalf("%s: cache = %q, want %q", line, r.Cache, want)
	}
	return r
}

const stmtQuery = "query (R -[R.a = S.a] S) ->[S.a = T.a] T"

// A repeated statement is served by its text: within a session and
// across sessions, with the same answer as the miss. The statement
// entry sits in the one LRU next to the graph entry it came from.
func TestStatementRepeatHits(t *testing.T) {
	core, s := stmtCore(t, Config{})
	miss := wantCache(t, s, stmtQuery, "miss")
	if n := core.Plans().Len(); n != 2 {
		t.Fatalf("cache holds %d entries after one statement, want 2 (graph + statement)", n)
	}
	hit := wantCache(t, s, stmtQuery, "hit")
	other := wantCache(t, NewSession(core), stmtQuery, "hit")
	for _, r := range []Response{hit, other} {
		if r.Output != miss.Output || r.Rows != miss.Rows || r.Tuples != miss.Tuples {
			t.Fatalf("hit answered %+v, miss answered %+v", r, miss)
		}
	}
	if n := core.Plans().Len(); n != 2 {
		t.Fatalf("cache holds %d entries after hits, want 2", n)
	}
	// Surrounding whitespace is trimmed before the text keys the entry.
	wantCache(t, s, "  "+stmtQuery+"  ", "hit")
}

// Every planner setting that keys a graph fingerprint keys the
// statement too: changing it misses once, then the new setting hits.
func TestStatementConfigMisses(t *testing.T) {
	_, s := stmtCore(t, Config{})
	wantCache(t, s, stmtQuery, "miss")
	for _, set := range []string{"set strategy yannakakis", "set spill on", "set batch_size 128"} {
		mustExec(t, s, set)
		wantCache(t, s, stmtQuery, "miss")
		wantCache(t, s, stmtQuery, "hit")
	}
}

// A table or index command moves the stats epoch, which strands the
// statement entry along with the graph entry.
func TestStatementStrandedByCatalogChange(t *testing.T) {
	_, s := stmtCore(t, Config{})
	wantCache(t, s, stmtQuery, "miss")
	wantCache(t, s, stmtQuery, "hit")
	for _, change := range []string{"index S a", "table U(a) = (1)", "table T(a) = (5), (6)"} {
		mustExec(t, s, change)
		wantCache(t, s, stmtQuery, "miss")
		wantCache(t, s, stmtQuery, "hit")
	}
}

// plan_cache off bypasses the statement key as well as the graph key.
func TestStatementPlanCacheOff(t *testing.T) {
	core, s := stmtCore(t, Config{})
	wantCache(t, s, stmtQuery, "miss")
	mustExec(t, s, "set plan_cache off")
	for i := 0; i < 2; i++ {
		wantCache(t, s, stmtQuery, "")
	}
	other := "query R ->[R.a = T.a] T"
	wantCache(t, s, other, "")
	wantCache(t, s, other, "")
	if n := core.Plans().Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want the 2 cached before plan_cache off", n)
	}
	mustExec(t, s, "set plan_cache on")
	wantCache(t, s, stmtQuery, "hit")
}

// Parse and plan errors are answered every time and never cached: a
// query over a missing table fails until the table exists, then plans.
func TestStatementErrorsNotCached(t *testing.T) {
	core, s := stmtCore(t, Config{})
	for _, tc := range []struct{ line, code string }{
		{"query R -[", CodeParse},
		{"query R -[R.a = Z.a] Z", CodePlan},
	} {
		for i := 0; i < 2; i++ {
			if r := s.SafeExec(context.Background(), tc.line); r.OK || r.Code != tc.code {
				t.Fatalf("%s (run %d) = %+v, want code %s", tc.line, i, r, tc.code)
			}
		}
	}
	if n := core.Plans().Len(); n != 0 {
		t.Fatalf("errors left %d cache entries", n)
	}
	mustExec(t, s, "table Z(a) = (2)")
	if r := wantCache(t, s, "query R -[R.a = Z.a] Z", "miss"); r.Rows != 1 {
		t.Fatalf("rows = %d, want 1", r.Rows)
	}
}

// plan_cold's shape: a working set four times the capacity, cycled
// twice, never hits, and the statement entries never push the cache
// past its bound.
func TestStatementPlanColdShape(t *testing.T) {
	const capacity = 4
	core, s := stmtCore(t, Config{PlanCache: capacity})
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 4*capacity; i++ {
			line := fmt.Sprintf("query sigma[R.b = %d](R) -[R.a = S.a] S", i)
			if r := mustExec(t, s, line); r.Cache == "hit" {
				t.Fatalf("pass %d, query %d hit in a working set 4x the cache", pass, i)
			}
			if n, c := core.Plans().Len(), core.Plans().Cap(); n > c {
				t.Fatalf("cache holds %d entries over its capacity %d", n, c)
			}
		}
	}
}

// A query text over the statement-key bound is planned through the
// graph key alone: it still hits, but adds no statement entry.
func TestStatementLongTextSkipsKey(t *testing.T) {
	core, s := stmtCore(t, Config{})
	var b strings.Builder
	b.WriteString("query sigma[R.b = 0")
	for i := 1; b.Len() < 5<<10; i++ {
		fmt.Fprintf(&b, " or R.b = %d", i*10)
	}
	b.WriteString("](R) -[R.a = S.a] S")
	long := b.String()
	first := wantCache(t, s, long, "miss")
	second := wantCache(t, s, long, "hit")
	if first.Rows != 2 || second.Rows != first.Rows {
		t.Fatalf("rows = %d then %d, want 2", first.Rows, second.Rows)
	}
	if n := core.Plans().Len(); n != 1 {
		t.Fatalf("cache holds %d entries for a long text, want 1 (its graph only)", n)
	}
}

// A hit records what the planning it skips would have: the strategy
// counter and the plan-cache hit counter move once, and the query
// record carries the miss's strategy, fallback reason and fingerprint.
// A fixed-order query (not freely reorderable) has no graph key, so its
// miss reports no cache outcome; its text is cached all the same, and
// its repeat is a hit.
func TestStatementHitRecords(t *testing.T) {
	core, s := stmtCore(t, Config{})
	last := func() obs.QueryRecord { return core.Tracer().Ring().Snapshot()[0] } // newest first
	for _, tc := range []struct{ query, strategy, missCache string }{
		{stmtQuery, "reordered", "miss"},
		{"query R ->[R.a = S.a] (S -[S.a = T.a] T)", "fixed", ""},
	} {
		wantCache(t, s, tc.query, tc.missCache)
		miss := last()
		if miss.Strategy != tc.strategy || (miss.Fingerprint == "") != (tc.strategy == "fixed") {
			t.Fatalf("%s: strategy %q, fingerprint %q; want %q, a fingerprint unless fixed",
				tc.query, miss.Strategy, miss.Fingerprint, tc.strategy)
		}
		strat, hits := obs.StrategyCounter(tc.strategy).Value(), obs.PlanCacheHits.Value()
		wantCache(t, s, tc.query, "hit")
		if d := obs.StrategyCounter(tc.strategy).Value() - strat; d != 1 {
			t.Fatalf("%s: hit moved the %s counter by %d, want 1", tc.query, tc.strategy, d)
		}
		if d := obs.PlanCacheHits.Value() - hits; d != 1 {
			t.Fatalf("%s: hit moved oj_plan_cache_hits_total by %d, want 1", tc.query, d)
		}
		hit := last()
		if hit.Strategy != miss.Strategy || hit.FallbackReason != miss.FallbackReason ||
			hit.Fingerprint != miss.Fingerprint || hit.PlanTree != miss.PlanTree {
			t.Fatalf("%s: hit record %+v differs from miss record %+v", tc.query, hit, miss)
		}
	}
}

// execute NAME takes the statement path over the prepared text: prepare
// warms the entry, so the first execute hits. Under another strategy it
// misses once and answers the same bag.
func TestStatementPrepareExecute(t *testing.T) {
	_, s := stmtCore(t, Config{})
	mustExec(t, s, "prepare pq "+strings.TrimPrefix(stmtQuery, "query "))
	first := wantCache(t, s, "execute pq", "hit")
	mustExec(t, s, "set strategy auto")
	auto := wantCache(t, s, "execute pq", "miss")
	wantCache(t, s, "execute pq", "hit")
	if sortedLines(auto.Output) != sortedLines(first.Output) {
		t.Fatalf("execute under auto answered\n%s\nwant the bag\n%s", auto.Output, first.Output)
	}
}

// A statement found in the cache but turned away at admission was not
// served from it: the hit is counted only when the plan is used.
func TestStatementRejectedHitCountsNothing(t *testing.T) {
	_, s := stmtCore(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	wantCache(t, s, stmtQuery, "miss")
	g, err := s.core.Admission().Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	hits, strat := obs.PlanCacheHits.Value(), obs.StrategyReordered.Value()
	if r := s.SafeExec(context.Background(), stmtQuery); r.OK || r.Code != CodeAdmissionRejected {
		t.Fatalf("query with the only slot held = %+v, want an admission rejection", r)
	}
	if obs.PlanCacheHits.Value() != hits || obs.StrategyReordered.Value() != strat {
		t.Fatal("a rejected statement counted a plan-cache hit or a strategy")
	}
	g.Release()
	wantCache(t, s, stmtQuery, "hit")
}
