package optimizer

import (
	"context"
	"errors"
	"strings"
	"testing"

	"freejoin/internal/exec"
	"freejoin/internal/parse"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Governor trips through the full pipeline: parse → PlanQueryTrace → build →
// instrumented execute under limits, asserting typed errors, clean
// release, and that EXPLAIN ANALYZE names the tripping operator.

func governorCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	mk := func(name string, n int) {
		r := relation.New(relation.SchemeOf(name, "a", "b"))
		for i := 0; i < n; i++ {
			r.AppendRaw([]relation.Value{relation.Int(int64(i % 7)), relation.Int(int64(i))})
		}
		cat.AddRelation(name, r)
	}
	mk("R", 40)
	mk("S", 40)
	mk("T", 40)
	return cat
}

func governorQuery(t *testing.T) (*Optimizer, *Plan) {
	t.Helper()
	q, err := parse.Expr("(R -[R.a = S.a] S) -[S.a = T.a] T")
	if err != nil {
		t.Fatal(err)
	}
	o := New(governorCatalog(t))
	p, _, err := o.PlanQueryTrace(q)
	if err != nil {
		t.Fatal(err)
	}
	return o, p
}

func TestGovernorTripThroughOptimizer(t *testing.T) {
	o, p := governorQuery(t)

	// Sanity: the ungoverned plan executes.
	if _, _, err := execute(o, p); err != nil {
		t.Fatalf("ungoverned: %v", err)
	}

	gov := exec.NewGovernor(1, 0) // one buffered row: any join build trips
	ec := exec.NewExecContext(context.Background(), gov)
	_, _, err := executeCtx(o, ec, p)
	var re *exec.ResourceError
	if !errors.As(err, &re) || re.Kind != exec.MemoryExceeded {
		t.Fatalf("want MemoryExceeded through the optimizer path, got %v", err)
	}
	if re.Operator == "" {
		t.Error("trip must name the operator")
	}
	if gov.UsedRows() != 0 || gov.UsedBytes() != 0 {
		t.Errorf("governor not drained: rows=%d bytes=%d", gov.UsedRows(), gov.UsedBytes())
	}
}

func TestCancelledContextThroughOptimizer(t *testing.T) {
	o, p := governorQuery(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := executeCtx(o, exec.NewExecContext(ctx, nil), p)
	var re *exec.ResourceError
	if !errors.As(err, &re) || re.Kind != exec.Cancelled {
		t.Fatalf("want Cancelled through the optimizer path, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("cause must unwrap to context.Canceled")
	}
}

// TestExplainAnalyzeNamesTrippingOperator: an aborted EXPLAIN ANALYZE
// must render the partial tree, mark the tripping operator, record
// governor events, and carry the plan-node label in the typed error.
func TestExplainAnalyzeNamesTrippingOperator(t *testing.T) {
	o, p := governorQuery(t)
	gov := exec.NewGovernor(1, 0)
	ec := exec.NewExecContext(context.Background(), gov)
	_, _, text, err := o.ExplainAnalyzeTraced(ec, p, nil, nil)
	var re *exec.ResourceError
	if !errors.As(err, &re) || re.Kind != exec.MemoryExceeded {
		t.Fatalf("want MemoryExceeded, got %v", err)
	}
	if re.Node == "" {
		t.Error("instrumented execution must stamp the plan-node label")
	}
	if !strings.Contains(text, "-- aborted:") {
		t.Errorf("rendering must carry the abort trailer:\n%s", text)
	}
	if !strings.Contains(text, "<-- error:") {
		t.Errorf("rendering must mark the tripping node:\n%s", text)
	}
	if !strings.Contains(text, "-- governor:") {
		t.Errorf("rendering must list governor events:\n%s", text)
	}
	if !strings.Contains(text, re.Node) {
		t.Errorf("tripping node %q absent from rendering:\n%s", re.Node, text)
	}
	if gov.UsedRows() != 0 {
		t.Errorf("governor not drained after abort: %d rows", gov.UsedRows())
	}
}

// TestExplainAnalyzeCtxCleanRun: the governed path with room to spare
// behaves exactly like the ungoverned one.
func TestExplainAnalyzeCtxCleanRun(t *testing.T) {
	o, p := governorQuery(t)
	want, _, err := execute(o, p)
	if err != nil {
		t.Fatal(err)
	}
	gov := exec.NewGovernor(1_000_000, 0)
	got, _, text, err := o.ExplainAnalyzeTraced(exec.NewExecContext(context.Background(), gov), p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EqualBag(got) {
		t.Error("governed execution changed the result")
	}
	if !strings.Contains(text, "-- totals:") {
		t.Errorf("clean run must render totals:\n%s", text)
	}
	if gov.UsedRows() != 0 {
		t.Errorf("governor not drained: %d rows", gov.UsedRows())
	}
}

// TestOptimizerFallbackWiring: when the build side is a scan of a table
// with a hash index on the equi-key, the built hash join degrades under
// budget pressure instead of failing, and the result matches.
func TestOptimizerFallbackWiring(t *testing.T) {
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
	want, _, err := execute(o, p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Algo != AlgoHash {
		t.Skipf("planner chose %v, not a hash join; fallback wiring not exercised", p.Algo)
	}
	// A 50-row budget admits neither side's 40-row build, but the index
	// strategy buffers almost nothing.
	gov := exec.NewGovernor(30, 0)
	got, _, err := executeCtx(o, exec.NewExecContext(context.Background(), gov), p)
	if err != nil {
		t.Fatalf("expected graceful degradation, got %v", err)
	}
	if !want.EqualBag(got) {
		t.Error("degraded plan changed the result")
	}
	found := false
	for _, ev := range gov.Events() {
		if strings.Contains(ev, "degraded to index strategy") {
			found = true
		}
	}
	if !found {
		t.Errorf("degradation must be recorded as a governor event: %v", gov.Events())
	}
}
