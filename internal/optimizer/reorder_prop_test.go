package optimizer

// The metamorphic free-reorderability suite. Theorem 1 provides a free
// test oracle: for a nice query graph with strong predicates, EVERY
// implementing tree must evaluate to the same bag — so any two trees of
// the same graph are metamorphic variants of one query, and a
// disagreement anywhere (algebra evaluation, physical execution, or the
// plan cache treating two trees as different queries) is a bug with a
// reproducible seed.

import (
	"math/rand"
	"testing"

	"freejoin/internal/core"
	"freejoin/internal/expr"
	"freejoin/internal/plancache"
	"freejoin/internal/relation"
	"freejoin/internal/workload"
)

const (
	// metamorphicInstances is the number of successfully checked random
	// graph instances; the acceptance floor for the suite.
	metamorphicInstances = 200
	// metamorphicITCap skips graphs with too many implementing trees to
	// execute exhaustively in test time.
	metamorphicITCap = 100
	// metamorphicBaseSeed anchors the deterministic seed stream: attempt
	// k always uses seed metamorphicBaseSeed+k, so a failure log line
	// pinpoints the instance regardless of how many were skipped.
	metamorphicBaseSeed = int64(0x0990)
)

// TestMetamorphicFreeReorderability generates random nice query graphs
// with strong predicates and random NULL-bearing data, enumerates all
// implementing trees (modulo reversal, up to a size cap), and asserts:
//
//  1. the analyzer certifies the graph freely reorderable,
//  2. every tree's algebra evaluation equals the first tree's (bag
//     equality) — the paper's Theorem 1,
//  3. every tree's physical execution through the optimizer matches too,
//  4. the plan cache fingerprints every tree of the graph identically:
//     the first tree misses, every later tree hits the same plan object.
func TestMetamorphicFreeReorderability(t *testing.T) {
	// The full suite runs at the default batch size and at one row per
	// batch ("row"), where every operator refills and resumes at each
	// row boundary; both must satisfy every oracle.
	for _, mode := range []struct {
		name string
		size int
	}{{"batch", 0}, {"row", 1}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) { runMetamorphicFreeReorderability(t, mode.size) })
	}
}

func runMetamorphicFreeReorderability(t *testing.T, batchSize int) {
	success, attempt := 0, 0
	for ; success < metamorphicInstances; attempt++ {
		if attempt >= metamorphicInstances*10 {
			t.Fatalf("only %d/%d instances after %d attempts (IT cap too tight?)",
				success, metamorphicInstances, attempt)
		}
		seed := metamorphicBaseSeed + int64(attempt)
		rnd := rand.New(rand.NewSource(seed))
		g := workload.RandomNiceGraph(rnd, 1+rnd.Intn(3), rnd.Intn(3))

		count, err := expr.CountITs(g, true)
		if err != nil {
			t.Fatalf("seed %d: CountITs: %v", seed, err)
		}
		if count < 2 || count > metamorphicITCap {
			continue // deterministic skip; the seed stream moves on
		}
		its, err := expr.EnumerateITs(g, true)
		if err != nil {
			t.Fatalf("seed %d: EnumerateITs: %v", seed, err)
		}
		if a := core.AnalyzeGraph(g); !a.Free {
			t.Fatalf("seed %d: generated nice graph not certified free: %s", seed, a)
		}

		db := workload.RandomDB(rnd, g, 6)
		o := New(catalogFor(db))
		o.Cache = plancache.New(metamorphicITCap)
		o.BatchSize = batchSize

		var ref *relation.Relation
		var fp string
		var shared *Plan
		for i, it := range its {
			// Oracle 1: reference algebra evaluation.
			got, err := it.Eval(db)
			if err != nil {
				t.Fatalf("seed %d tree %d: Eval: %v\ntree: %s", seed, i, err, it.StringWithPreds())
			}
			if ref == nil {
				ref = got
			} else if !got.EqualBag(ref) {
				t.Fatalf("seed %d tree %d: algebra result differs from tree 0\ntree: %s\ngraph:\n%s",
					seed, i, it.StringWithPreds(), g)
			}

			// Oracle 2: physical execution of the tree as written (no
			// reordering) through the executor.
			pf, err := o.PlanFixed(it)
			if err != nil {
				t.Fatalf("seed %d tree %d: PlanFixed: %v", seed, i, err)
			}
			rel, _, err := execute(o, pf)
			if err != nil {
				t.Fatalf("seed %d tree %d: execute fixed: %v", seed, i, err)
			}
			if !rel.EqualBag(ref) {
				t.Fatalf("seed %d tree %d: fixed-order execution differs from algebra result\ntree: %s",
					seed, i, it.StringWithPreds())
			}

			// Oracle 3: the plan cache must see every tree of this graph
			// as the same query.
			p, tr, err := o.PlanQueryTrace(it)
			if err != nil {
				t.Fatalf("seed %d tree %d: PlanQueryTrace: %v", seed, i, err)
			}
			if !reordered(tr) {
				t.Fatalf("seed %d tree %d: nice query not reordered (%s)", seed, i, tr.FallbackReason)
			}
			if i == 0 {
				if tr.CacheOutcome != "miss" {
					t.Fatalf("seed %d: first tree outcome %q; want miss", seed, tr.CacheOutcome)
				}
				fp, shared = tr.Fingerprint, p
				// The optimized plan agrees with the oracle as well.
				orel, _, err := execute(o, p)
				if err != nil {
					t.Fatalf("seed %d: execute optimized: %v", seed, err)
				}
				if !orel.EqualBag(ref) {
					t.Fatalf("seed %d: optimized execution differs from algebra result", seed)
				}
			} else {
				if tr.Fingerprint != fp {
					t.Fatalf("seed %d tree %d: fingerprint %s != tree 0's %s\ntree: %s",
						seed, i, tr.Fingerprint, fp, it.StringWithPreds())
				}
				if tr.CacheOutcome != "hit" {
					t.Fatalf("seed %d tree %d: outcome %q; want hit", seed, i, tr.CacheOutcome)
				}
				if p != shared {
					t.Fatalf("seed %d tree %d: cache returned a different plan object", seed, i)
				}
			}
		}
		if o.Cache.Len() != 1 {
			t.Fatalf("seed %d: cache holds %d entries after one graph; want 1", seed, o.Cache.Len())
		}
		success++
	}
	t.Logf("verified %d instances (%d attempts, %d skipped)", success, attempt, attempt-success)
}

// TestNegativeOracle guards the analyzer against silently over-approving:
// random graphs that violate niceness or predicate strength must either
// be rejected by the analysis, or — if the analysis certifies them —
// actually be freely reorderable on random data. Across the corpus, the
// rejected graphs must also produce genuine counterexamples (differing
// implementing-tree results), proving the rejections are not vacuous.
func TestNegativeOracle(t *testing.T) {
	const instances = 120
	rejected, witnesses := 0, 0
	for attempt := 0; attempt < instances; attempt++ {
		seed := metamorphicBaseSeed + 100_000 + int64(attempt)
		rnd := rand.New(rand.NewSource(seed))

		var g = workload.RandomConnectedGraph(rnd, 3+rnd.Intn(2))
		if attempt%3 == 0 {
			// Example 3's shape: a nice topology whose outerjoin
			// predicate is not strong ("u.a = v.a or v.a is null").
			g = workload.JoinChainGraph(2 + rnd.Intn(2))
			nodes := g.Nodes()
			last := nodes[len(nodes)-1]
			if err := g.AddOuterEdge(last, "Z", workload.NonStrongPredicate(last, "Z")); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}

		count, err := expr.CountITs(g, false)
		if err != nil || count < 2 || count > 512 {
			continue
		}
		db := workload.RandomDB(rnd, g, 6)
		a := core.AnalyzeGraph(g)
		res, err := core.Verify(g, db)
		if err != nil {
			t.Fatalf("seed %d: Verify: %v", seed, err)
		}
		if a.Free {
			// The analyzer approved: Theorem 1 must hold on this data.
			if !res.AllEqual {
				t.Fatalf("seed %d: analyzer certified free but trees disagree\n%s vs %s\ngraph:\n%s",
					seed, res.WitnessA, res.WitnessB, g)
			}
			continue
		}
		rejected++
		if !res.AllEqual {
			witnesses++
		}
	}
	if rejected == 0 {
		t.Fatal("corpus produced no analyzer-rejected graphs; generator broken")
	}
	if witnesses == 0 {
		t.Fatalf("none of the %d rejected graphs produced a differing implementing-tree result; rejections unverified", rejected)
	}
	t.Logf("%d rejected graphs, %d with concrete counterexamples", rejected, witnesses)
}
