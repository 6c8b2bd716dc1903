package optimizer

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/obs"
	"freejoin/internal/parse"
	"freejoin/internal/plancache"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

// Spilling through the planner: cache keying, trace annotation, EXPLAIN
// ANALYZE counters, and the metamorphic spill oracle.

// TestSpillToggleMissesPlanCache: a plan built with spilling enabled has
// different degradation wiring than one built without; toggling the
// optimizer's spill mode must never serve the other mode's cached plan.
func TestSpillToggleMissesPlanCache(t *testing.T) {
	o, q := cacheFixture(t, 77)

	_, tr1, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.CacheOutcome != "miss" {
		t.Fatalf("first optimize outcome %q; want miss", tr1.CacheOutcome)
	}

	o.Spill = true
	_, tr2, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.CacheOutcome != "miss" {
		t.Fatalf("spill-enabled optimize outcome %q; want miss (must not reuse the spill-off plan)", tr2.CacheOutcome)
	}
	if tr1.Fingerprint == tr2.Fingerprint {
		t.Fatalf("spill toggle did not change the fingerprint: %s", tr1.Fingerprint)
	}

	// Each mode hits its own entry on repeat.
	_, tr3, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr3.CacheOutcome != "hit" || tr3.Fingerprint != tr2.Fingerprint {
		t.Fatalf("spill-enabled repeat: outcome %q fp %q; want hit on %q", tr3.CacheOutcome, tr3.Fingerprint, tr2.Fingerprint)
	}
	o.Spill = false
	_, tr4, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr4.CacheOutcome != "hit" || tr4.Fingerprint != tr1.Fingerprint {
		t.Fatalf("spill-off repeat: outcome %q fp %q; want hit on %q", tr4.CacheOutcome, tr4.Fingerprint, tr1.Fingerprint)
	}
	if o.Cache.Len() != 2 {
		t.Fatalf("cache holds %d entries; want one per spill mode", o.Cache.Len())
	}
}

// TestTraceDegradationAnnotation: lowering records which budget-pressure
// path the plan's hash joins were wired with — grace-hash when spilling,
// the index alternative otherwise.
func TestTraceDegradationAnnotation(t *testing.T) {
	cat := governorCatalog(t)
	tb, err := cat.Table("S")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.BuildHashIndex("a"); err != nil {
		t.Fatal(err)
	}
	q, err := parse.Expr("R -[R.a = S.a] S")
	if err != nil {
		t.Fatal(err)
	}
	o := New(cat)
	p, _, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Algo != AlgoHash {
		t.Skipf("planner chose %v, not a hash join", p.Algo)
	}
	var c exec.Counters
	tr := &Trace{}
	if _, _, err := o.BuildInstrumentedTraced(p, &c, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Degradation, "index join via S.a") {
		t.Errorf("spill-off degradation = %q; want the index fallback", tr.Degradation)
	}
	if !strings.Contains(tr.String(), "-- degradation:") {
		t.Errorf("trace rendering must carry the degradation line:\n%s", tr.String())
	}

	o.Spill = true
	tr = &Trace{}
	if _, _, err := o.BuildInstrumentedTraced(p, &c, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Degradation != "grace-hash spill" {
		t.Errorf("spill-on degradation = %q; want grace-hash spill", tr.Degradation)
	}
}

// TestExplainAnalyzeSpillCounters: a governed run that spills must
// complete, match the ungoverned bag, render nonzero spill counters in
// the stats tree, note the degradation in governor events, and move the
// process-wide oj_spill_* metrics.
func TestExplainAnalyzeSpillCounters(t *testing.T) {
	o, p := governorQuery(t)
	want, _, err := execute(o, p)
	if err != nil {
		t.Fatal(err)
	}

	runs0, bytes0 := obs.SpillRuns.Value(), obs.SpillBytes.Value()
	dir := t.TempDir()
	gov := exec.NewGovernor(0, 600)
	ec := exec.NewExecContext(context.Background(), gov)
	ec.EnableSpill(exec.SpillConfig{Dir: dir})
	o.Spill = true

	got, _, text, err := o.ExplainAnalyzeTraced(ec, p, &Trace{}, nil)
	if err != nil {
		t.Fatalf("spilling EXPLAIN ANALYZE failed: %v\n%s", err, text)
	}
	if !want.EqualBag(got) {
		t.Error("spilled execution changed the result bag")
	}
	if !strings.Contains(text, "spill-runs=") || !strings.Contains(text, "spill-bytes=") {
		t.Errorf("stats tree must render spill counters:\n%s", text)
	}
	if !strings.Contains(text, "-- governor:") {
		t.Errorf("spill degradation must surface as a governor event:\n%s", text)
	}
	if obs.SpillRuns.Value() == runs0 {
		t.Error("oj_spill_runs_total did not move")
	}
	if obs.SpillBytes.Value() == bytes0 {
		t.Error("oj_spill_bytes_total did not move")
	}
	if gov.UsedRows() != 0 || gov.UsedBytes() != 0 || gov.UsedSpillBytes() != 0 {
		t.Errorf("governor not drained: rows=%d bytes=%d spill=%d",
			gov.UsedRows(), gov.UsedBytes(), gov.UsedSpillBytes())
	}
	files, err := filepath.Glob(filepath.Join(dir, "ojspill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("run files leaked: %v", files)
	}
}

// TestMetamorphicSpillOracle is the spill edition of the metamorphic
// free-reorderability suite: for every random nice-graph instance, the
// optimized plan executed under a byte budget small enough to force
// every blocking operator to disk must produce exactly the bag of the
// unbudgeted in-memory run.
func TestMetamorphicSpillOracle(t *testing.T) {
	// At the default batch size and at one row per batch ("row"): the
	// spilled plans must reproduce their in-memory bags, and the
	// in-memory bags the reference algebra's.
	for _, mode := range []struct {
		name string
		size int
	}{{"batch", 0}, {"row", 1}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) { runMetamorphicSpillOracle(t, mode.size) })
	}
}

func runMetamorphicSpillOracle(t *testing.T, batchSize int) {
	runs0 := obs.SpillRuns.Value()
	success := 0
	for attempt := 0; success < metamorphicInstances; attempt++ {
		if attempt >= metamorphicInstances*10 {
			t.Fatalf("only %d/%d instances after %d attempts", success, metamorphicInstances, attempt)
		}
		seed := metamorphicBaseSeed + 200_000 + int64(attempt)
		rnd := rand.New(rand.NewSource(seed))
		g := workload.RandomNiceGraph(rnd, 1+rnd.Intn(3), rnd.Intn(3))
		count, err := expr.CountITs(g, true)
		if err != nil {
			t.Fatalf("seed %d: CountITs: %v", seed, err)
		}
		if count < 2 || count > metamorphicITCap {
			continue
		}
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatalf("seed %d: EnumerateITs: %v", seed, err)
		}
		if a := core.AnalyzeGraph(g); !a.Free {
			t.Fatalf("seed %d: nice graph not certified free: %s", seed, a)
		}

		// Alternate plain and dangling-heavy databases: spilled runs must
		// agree with the in-memory bag whether or not most tuples dangle.
		db := workload.RandomDB(rnd, g, 6)
		if attempt%2 == 1 {
			db = workload.RandomDanglingDB(rnd, g, 6, 0.5+rnd.Float64()*0.4)
		}
		o := New(catalogFor(db))
		o.Cache = plancache.New(metamorphicITCap)
		o.Spill = true
		o.BatchSize = batchSize

		p, _, err := o.PlanQueryTrace(its[0])
		if err != nil {
			t.Fatalf("seed %d: PlanQueryTrace: %v", seed, err)
		}
		ref, _, err := execute(o, p)
		if err != nil {
			t.Fatalf("seed %d: unbudgeted execute: %v", seed, err)
		}

		// The reference algebra produces exactly the same bag.
		alg, err := its[0].Eval(db)
		if err != nil {
			t.Fatalf("seed %d: Eval: %v", seed, err)
		}
		if !alg.EqualBag(ref) {
			t.Fatalf("seed %d: executor and reference algebra disagree\ngraph:\n%s", seed, g)
		}

		// 96 bytes admits one ~80-byte row and trips on the second: every
		// blocking operator in the plan is forced through its spill path.
		dir := t.TempDir()
		gov := exec.NewGovernor(0, 96)
		ec := exec.NewExecContext(context.Background(), gov)
		ec.EnableSpill(exec.SpillConfig{Dir: dir})
		got, _, err := executeCtx(o, ec, p)
		if err != nil {
			t.Fatalf("seed %d: spilled execute: %v\ngraph:\n%s", seed, err, g)
		}
		if !got.EqualBag(ref) {
			t.Fatalf("seed %d: spilled execution differs from in-memory run\ngraph:\n%s", seed, g)
		}
		if gov.UsedRows() != 0 || gov.UsedBytes() != 0 || gov.UsedSpillBytes() != 0 {
			t.Fatalf("seed %d: governor not drained: rows=%d bytes=%d spill=%d",
				seed, gov.UsedRows(), gov.UsedBytes(), gov.UsedSpillBytes())
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "ojspill-*")); len(files) != 0 {
			t.Fatalf("seed %d: run files leaked: %v", seed, files)
		}
		success++
	}
	if obs.SpillRuns.Value() == runs0 {
		t.Error("the suite never actually spilled; the budget is not forcing the disk path")
	}
	t.Logf("verified %d spilled instances", success)
}

// TestBatchToggleMissesPlanCache: an explicit batch size is baked into
// the operators at lowering, so every distinct size must key its own
// cache entry and hit only itself on repeat.
func TestBatchToggleMissesPlanCache(t *testing.T) {
	o, q := cacheFixture(t, 78)

	_, tr1, err := o.PlanQueryTrace(q) // default: batched
	if err != nil {
		t.Fatal(err)
	}
	if tr1.CacheOutcome != "miss" {
		t.Fatalf("first optimize outcome %q; want miss", tr1.CacheOutcome)
	}

	o.BatchSize = 7
	_, tr2, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.CacheOutcome != "miss" {
		t.Fatalf("size-7 optimize outcome %q; want miss (must not reuse the default-size plan)", tr2.CacheOutcome)
	}
	if tr1.Fingerprint == tr2.Fingerprint {
		t.Fatalf("batch toggle did not change the fingerprint: %s", tr1.Fingerprint)
	}

	o.BatchSize = 256
	_, tr3, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr3.CacheOutcome != "miss" {
		t.Fatalf("explicit-size optimize outcome %q; want miss", tr3.CacheOutcome)
	}
	if tr3.Fingerprint == tr1.Fingerprint || tr3.Fingerprint == tr2.Fingerprint {
		t.Fatalf("explicit batch size shares a fingerprint with another mode")
	}

	// Each mode hits its own entry on repeat.
	for _, step := range []struct {
		size int
		fp   string
	}{{0, tr1.Fingerprint}, {7, tr2.Fingerprint}, {256, tr3.Fingerprint}} {
		o.BatchSize = step.size
		_, tr, err := o.PlanQueryTrace(q)
		if err != nil {
			t.Fatal(err)
		}
		if tr.CacheOutcome != "hit" || tr.Fingerprint != step.fp {
			t.Fatalf("batch=%d repeat: outcome %q fp %q; want hit on %q",
				step.size, tr.CacheOutcome, tr.Fingerprint, step.fp)
		}
	}
	if o.Cache.Len() != 3 {
		t.Fatalf("cache holds %d entries; want one per batch size", o.Cache.Len())
	}
}

// TestGraceSpillBuildRunsOnce runs the served spill_join templates —
// chain3_outer and star4_mixed over the benchmark's tables at a fifth
// of their size — under a budget one hash build of each plan cannot
// hold. The tripped join must partition what it has in hand instead of
// re-running its build child: the same bag and the same base tuples
// retrieved as the unbudgeted run, exactly one governor trip and one
// degradation (obs counter deltas), and EXPLAIN ANALYZE's governor notes
// showing one trip and one grace spill, with no delegation.
func TestGraceSpillBuildRunsOnce(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	cat := storage.NewCatalog()
	for _, s := range []int64{1, 2, 3, 10, 20} {
		name := fmt.Sprintf("T%d", s)
		cat.AddRelation(name, keyedRelation(rnd, name, 1600/int(s), s, s))
	}
	for _, tc := range []struct{ name, query string }{
		{"chain3_outer", "(T20 -[T20.a = T1.a] T1) ->[T1.b = T2.a] T2"},
		{"star4_mixed", "((T1 -[T1.a = T10.a] T10) -[T1.b = T3.a] T3) ->[T1.a = T2.a] T2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := parse.Expr(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			o := New(cat)
			o.Strategy = "auto"
			o.Spill = true
			p, _, err := o.PlanQueryTrace(q)
			if err != nil {
				t.Fatal(err)
			}
			want, wc, err := execute(o, p)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			gov := exec.NewGovernor(0, 100_000)
			ec := exec.NewExecContext(context.Background(), gov)
			ec.EnableSpill(exec.SpillConfig{Dir: dir})
			trips0, deg0 := obs.GovernorTripsMemory.Value(), obs.GovernorDegradations.Value()
			got, c, text, err := o.ExplainAnalyzeTraced(ec, p, &Trace{}, nil)
			if err != nil {
				t.Fatalf("spilled run failed: %v\n%s", err, text)
			}
			if !want.EqualBag(got) {
				t.Errorf("spilled bag differs: %d rows, want %d", got.Len(), want.Len())
			}
			if c.TuplesRetrieved() != wc.TuplesRetrieved() {
				t.Errorf("spilled run retrieved %d base tuples, unbudgeted %d: a build child ran twice",
					c.TuplesRetrieved(), wc.TuplesRetrieved())
			}
			if d := obs.GovernorTripsMemory.Value() - trips0; d != 1 {
				t.Errorf("memory trips moved by %d, want 1", d)
			}
			if d := obs.GovernorDegradations.Value() - deg0; d != 1 {
				t.Errorf("degradations moved by %d, want 1", d)
			}
			var trips, graces int
			for _, line := range strings.Split(text, "\n") {
				switch {
				case !strings.HasPrefix(line, "-- governor: "):
				case strings.Contains(line, "memory budget exceeded"):
					trips++
				case strings.Contains(line, "grace hash join spilling to 8 partitions"):
					graces++
				case strings.Contains(line, "delegating"):
					t.Errorf("delegation note: %s", line)
				}
			}
			if trips != 1 || graces != 1 {
				t.Errorf("governor notes: %d trips and %d grace spills, want 1 and 1:\n%s", trips, graces, text)
			}
			if gov.UsedRows() != 0 || gov.UsedBytes() != 0 || gov.UsedSpillBytes() != 0 {
				t.Errorf("governor not drained: rows=%d bytes=%d spill=%d",
					gov.UsedRows(), gov.UsedBytes(), gov.UsedSpillBytes())
			}
			if files, _ := filepath.Glob(filepath.Join(dir, "ojspill-*")); len(files) != 0 {
				t.Errorf("spill files leaked: %v", files)
			}
		})
	}
}
