package freejoin

// Cross-module integration tests: text → parse → analyze → plan → execute
// → verify against the reference algebra, with a catalog snapshot in the
// middle — the full path a downstream user takes.

import (
	"math/rand"
	"path/filepath"
	"testing"

	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/optimizer"
	"freejoin/internal/parse"
	"freejoin/internal/storage"
	"freejoin/internal/workload"
)

func TestEndToEndPipeline(t *testing.T) {
	rnd := rand.New(rand.NewSource(101))

	// 1. Build a catalog with indexes.
	cat := storage.NewCatalog()
	for _, name := range []string{"A", "B", "C", "D"} {
		cat.AddRelation(name, workload.UniformRelation(rnd, name, 500, 50))
		tb, _ := cat.Table(name)
		if _, err := tb.BuildHashIndex("a"); err != nil {
			t.Fatal(err)
		}
	}

	// 2. Snapshot to disk and restore — downstream state survives.
	path := filepath.Join(t.TempDir(), "cat.fjdb")
	if err := storage.SaveCatalogFile(path, cat); err != nil {
		t.Fatal(err)
	}
	restored, err := storage.LoadCatalogFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Parse a textual restricted join/outerjoin query.
	q, err := parse.Expr(
		"sigma[A.a = 7](((A -[A.a = B.a] B) -[B.b = C.b] C) ->[C.a = D.a] D)")
	if err != nil {
		t.Fatal(err)
	}

	// 4. Analyze: the block under sigma is freely reorderable.
	block := q.Left
	if ok, reason := core.FreelyReorderable(block); !ok {
		t.Fatalf("block should be reorderable: %s", reason)
	}

	// 5. Plan through the full §4 pipeline and execute.
	o := optimizer.New(restored)
	plan, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Strategy != "reordered" && tr.Strategy != "yannakakis" {
		t.Fatalf("pipeline should reorder; plan:\n%s", plan.Explain())
	}
	var counters exec.Counters
	got, err := o.ExecuteCtxCounted(nil, plan, &counters)
	if err != nil {
		t.Fatal(err)
	}

	// 6. Reference evaluation agrees.
	want, err := q.Eval(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualBag(want) {
		t.Fatalf("pipeline result differs from reference\nplan:\n%s", plan.Explain())
	}
	// The pushed index scan avoids reading A and B (C must still be read
	// once for its hash/NL join — there is no index on the b column); the
	// naive plan reads all four tables: 2000 tuples.
	if counters.TuplesRetrieved() > 1200 {
		t.Errorf("retrieved %d tuples; pushdown/index scan not effective:\n%s",
			counters.TuplesRetrieved(), plan.Explain())
	}

	// 7. Brute-force reorderability of the block on the same data.
	g, err := core.Analyze(block)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Verify(g.Graph, restored)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllEqual {
		t.Fatal("implementing trees disagree on real data")
	}
}
