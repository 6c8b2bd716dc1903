package optimizer

import (
	"math/rand"
	"sync"
	"testing"

	"freejoin/internal/expr"
	"freejoin/internal/obs"
	"freejoin/internal/plancache"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

// cacheFixture builds a catalog and a freely-reorderable query over it.
func cacheFixture(t *testing.T, seed int64) (*Optimizer, *expr.Node) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	g := workload.CoreWithTreesGraph(3, 2)
	db := workload.RandomDB(rnd, g, 8)
	its, err := expr.EnumerateITs(g, true)
	if err != nil {
		t.Fatal(err)
	}
	o := New(catalogFor(db))
	o.Cache = plancache.New(16)
	return o, its[0]
}

// A repeated query must hit the cache and share the identical plan
// object; the trace records the outcome and fingerprint.
func TestPlanCacheHit(t *testing.T) {
	o, q := cacheFixture(t, 101)
	hits0, misses0 := obs.PlanCacheHits.Value(), obs.PlanCacheMisses.Value()

	p1, tr1, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.CacheOutcome != "miss" || tr1.Fingerprint == "" {
		t.Fatalf("first optimize: outcome %q, fp %q; want miss with a fingerprint", tr1.CacheOutcome, tr1.Fingerprint)
	}
	p2, tr2, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.CacheOutcome != "hit" {
		t.Fatalf("second optimize outcome = %q; want hit", tr2.CacheOutcome)
	}
	if p1 != p2 {
		t.Fatal("cache hit returned a different plan object")
	}
	if tr1.Fingerprint != tr2.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", tr1.Fingerprint, tr2.Fingerprint)
	}
	if tr2.Subsets != 0 {
		t.Fatalf("cache hit ran the DP (%d subsets)", tr2.Subsets)
	}
	if d := obs.PlanCacheMisses.Value() - misses0; d != 1 {
		t.Fatalf("miss counter delta = %d; want 1", d)
	}
	if d := obs.PlanCacheHits.Value() - hits0; d != 1 {
		t.Fatalf("hit counter delta = %d; want 1", d)
	}
}

// Every implementing tree of one graph is the same query to the cache:
// Theorem 1 says they agree on results, and the fingerprint is computed
// from the graph, so tree #2 must hit what tree #1 populated.
func TestPlanCacheAcrossImplementingTrees(t *testing.T) {
	o, _ := cacheFixture(t, 102)
	g := workload.CoreWithTreesGraph(3, 2)
	its, err := expr.EnumerateITs(g, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(its) < 2 {
		t.Fatalf("fixture graph has %d ITs; want >= 2", len(its))
	}
	var fp string
	for i, it := range its {
		_, tr, err := o.PlanQueryTrace(it)
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		if i == 0 {
			fp = tr.Fingerprint
			if tr.CacheOutcome != "miss" {
				t.Fatalf("tree 0 outcome = %q; want miss", tr.CacheOutcome)
			}
			continue
		}
		if tr.Fingerprint != fp {
			t.Fatalf("tree %d fingerprint %s != tree 0 fingerprint %s\ntree: %s",
				i, tr.Fingerprint, fp, it.StringWithPreds())
		}
		if tr.CacheOutcome != "hit" {
			t.Fatalf("tree %d outcome = %q; want hit", i, tr.CacheOutcome)
		}
	}
}

// Building an index bumps the stats epoch, so the cached plan — costed
// without that access path — must be invalidated and re-optimized.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	o, q := cacheFixture(t, 103)
	inval0 := obs.PlanCacheInvalidations.Value()

	if _, tr, err := o.PlanQueryTrace(q); err != nil || tr.CacheOutcome != "miss" {
		t.Fatalf("first optimize: %v, outcome %q", err, tr.CacheOutcome)
	}
	// Any table will do: the epoch is per catalog.
	name := o.cat.Tables()[0]
	tab, err := o.cat.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.BuildHashIndex("a"); err != nil {
		t.Fatal(err)
	}
	_, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CacheOutcome != "miss" {
		t.Fatalf("post-index optimize outcome = %q; want miss (stale epoch)", tr.CacheOutcome)
	}
	if d := obs.PlanCacheInvalidations.Value() - inval0; d != 1 {
		t.Fatalf("invalidation counter delta = %d; want 1", d)
	}
}

// Different pushed-down filters are different cache keys.
func TestPlanCacheFilterKeys(t *testing.T) {
	rnd := rand.New(rand.NewSource(104))
	g := workload.JoinChainGraph(3)
	db := workload.RandomDB(rnd, g, 8)
	o := New(catalogFor(db))
	o.Cache = plancache.New(16)

	its, err := expr.EnumerateITs(g, true)
	if err != nil {
		t.Fatal(err)
	}
	q := its[0]
	sigma := expr.NewRestrict(q, predicate.EqConst(relation.A("A", "a"), relation.Int(1)))

	_, tr1, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	_, tr2, err := o.PlanQueryTrace(sigma)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.CacheOutcome != "miss" {
		t.Fatalf("bare query outcome = %q; want miss", tr1.CacheOutcome)
	}
	if tr2.CacheOutcome == "hit" && tr2.Fingerprint == tr1.Fingerprint {
		t.Fatalf("filtered query aliased the unfiltered plan (fp %s)", tr2.Fingerprint)
	}
}

// The concurrency satellite: N goroutines issue the same uncached
// query; exactly one DP run happens (singleflight), the obs counters
// account for every lookup, and the run is race-clean.
func TestPlanCacheConcurrentSingleflight(t *testing.T) {
	o, q := cacheFixture(t, 105)

	// Reference DP size for this query, measured without a cache.
	ref := New(o.cat)
	_, refTr, err := ref.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if refTr.Subsets == 0 {
		t.Fatal("fixture query did not exercise the DP")
	}

	hits0 := obs.PlanCacheHits.Value()
	misses0 := obs.PlanCacheMisses.Value()
	coal0 := obs.PlanCacheCoalesced.Value()
	subsets0 := obs.DPSubsets.Value()

	const n = 16
	var wg sync.WaitGroup
	plans := make([]*Plan, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			p, _, err := o.PlanQueryTrace(q)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d got a different plan object", i)
		}
	}
	misses := obs.PlanCacheMisses.Value() - misses0
	hits := obs.PlanCacheHits.Value() - hits0
	coalesced := obs.PlanCacheCoalesced.Value() - coal0
	if misses != 1 {
		t.Fatalf("misses = %d; want exactly 1 (singleflight)", misses)
	}
	if hits+coalesced != n-1 {
		t.Fatalf("hits (%d) + coalesced (%d) = %d; want %d", hits, coalesced, hits+coalesced, n-1)
	}
	// Exactly one DP run across all N optimizations.
	if d := obs.DPSubsets.Value() - subsets0; d != int64(refTr.Subsets) {
		t.Fatalf("DP subsets delta = %d; want %d (one run)", d, refTr.Subsets)
	}
}

// The epoch-race satellite: concurrent catalog Adds (driving
// Table.onChange epoch bumps) while identical queries plan and execute
// through the shared cache. Under -race this exercises the catalog and
// table locks; the cache's insert-time epoch revalidation keeps any
// plan computed across an Add from being served stale. The re-added
// table carries the same rows, so every execution must agree with the
// pre-storm reference result.
func TestPlanCacheConcurrentAddExecute(t *testing.T) {
	o, q := cacheFixture(t, 106)
	cat := o.cat
	name := cat.Tables()[0]
	tab, err := cat.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	rel := tab.Relation()

	refPlan, _, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := execute(o, refPlan)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the concurrent Add: same data, fresh Table, epoch bumps
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cat.Add(storage.NewTable(name, rel))
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p, _, err := o.PlanQueryTrace(q)
				if err != nil {
					t.Error(err)
					return
				}
				got, _, err := execute(o, p)
				if err != nil {
					t.Error(err)
					return
				}
				if !got.EqualBag(want) {
					t.Error("execution under concurrent Add diverged from reference")
					return
				}
			}
		}()
	}
	close(stop)
	wg.Wait()
}
