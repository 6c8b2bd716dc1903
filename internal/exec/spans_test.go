package exec

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"freejoin/internal/obs"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// The span/stats consistency property: SpanTree must be a faithful
// timeline rendering of an executed StatsNode tree, whatever the
// operator and however the run ended. Checked over the same operator
// inventory and fault configurations as the error-path contract:
//
//  1. one span per plan node, in pre-order, names and depths matching
//     StatsNode.Walk (zip property);
//  2. a parent span's duration covers the sum of its children's within
//     timer-granularity tolerance (WallTime is inclusive);
//  3. a span carries an error exactly when its node recorded one;
//  4. child spans are laid out back to back inside the parent's
//     interval, starting at the parent's start.

// instrumentCase builds an operator from the operator registry with every child
// position individually instrumented, then instruments the root, so the
// resulting StatsNode tree has real parent/child structure.
func instrumentCase(t *testing.T, fc opCase, rt, st *storage.Table, c *Counters, at int, f Fault) (*Instrumented, []*FaultIterator) {
	t.Helper()
	ch, fis := buildChildren(rt, st, fc, at, f)
	nodes := make([]*StatsNode, fc.children)
	for i := range ch {
		w := Instrument(ch[i], "child", c)
		ch[i], nodes[i] = w, w.Node()
	}
	root := Instrument(fc.build(t, ch), "root", c, nodes...)
	return root, fis
}

// checkSpanTree asserts the four properties against the node tree.
func checkSpanTree(t *testing.T, root *StatsNode, spans []obs.Span, start time.Time) {
	t.Helper()
	// Timer granularity: each Open/NextBatch takes two time.Now readings, so
	// allow a generous fixed slack per comparison.
	const tolerance = 2 * time.Millisecond

	// (1) zip: same count, names, and depths in pre-order.
	var nodes []*StatsNode
	var depths []int
	root.Walk(func(depth int, n *StatsNode) {
		nodes = append(nodes, n)
		depths = append(depths, depth)
	})
	if len(spans) != len(nodes) {
		t.Fatalf("span count = %d, node count = %d", len(spans), len(nodes))
	}
	for i, sp := range spans {
		if sp.Name != nodes[i].Label {
			t.Errorf("span %d name = %q, node label = %q", i, sp.Name, nodes[i].Label)
		}
		if sp.Depth != depths[i] {
			t.Errorf("span %d depth = %d, node depth = %d", i, sp.Depth, depths[i])
		}
		if sp.Cat != "operator" {
			t.Errorf("span %d category = %q, want operator", i, sp.Cat)
		}
		if sp.Dur != nodes[i].Stats.WallTime {
			t.Errorf("span %d dur = %v, node wall time = %v", i, sp.Dur, nodes[i].Stats.WallTime)
		}
		// (3) errors exactly on errored nodes.
		if (sp.Err != "") != (nodes[i].Err != nil) {
			t.Errorf("span %d err = %q, node err = %v", i, sp.Err, nodes[i].Err)
		}
	}
	// (2) parent covers children; (4) children tile the parent's start.
	if spans[0].Start != start {
		t.Errorf("root span starts at %v, want %v", spans[0].Start, start)
	}
	i := 0
	var check func(parent int)
	check = func(parent int) {
		n := nodes[parent]
		var childSum time.Duration
		at := spans[parent].Start
		for range n.Children {
			i++
			child := i
			if spans[child].Start != at {
				t.Errorf("child span %d starts at %v, want %v (back-to-back layout)",
					child, spans[child].Start, at)
			}
			childSum += spans[child].Dur
			at = at.Add(spans[child].Dur)
			check(child)
		}
		if spans[parent].Dur+tolerance < childSum {
			t.Errorf("parent span %d dur %v + tolerance < child sum %v",
				parent, spans[parent].Dur, childSum)
		}
	}
	check(0)
}

// TestSpanTreeProperty drives every operator clean and under each fault
// configuration, then checks the SpanTree properties on the resulting
// stats tree.
func TestSpanTreeProperty(t *testing.T) {
	rt, st := contractTables(t)
	var c Counters
	faults := []struct {
		name string
		f    Fault
	}{
		{"clean", Fault{}},
		{"open", Fault{FailOpen: true}},
		{"next-first", Fault{FailNext: true, FailAfter: 0}},
		{"next-midstream", Fault{FailNext: true, FailAfter: 2}},
	}
	for name, fc := range operatorRegistry(t, rt, st, &c) {
		positions := fc.children
		if positions == 0 {
			positions = 1 // leaf operators still get a clean run
		}
		for pos := 0; pos < positions; pos++ {
			for _, fault := range faults {
				if fc.children == 0 && fault.name != "clean" {
					continue // no child to inject into
				}
				t.Run(name+"/"+fault.name, func(t *testing.T) {
					root, _ := instrumentCase(t, fc, rt, st, &c, pos, fault.f)
					start := time.Now()
					runCycle(root, NewExecContext(context.Background(), NewGovernor(0, 0)))
					spans := SpanTree(root.Node(), start)
					checkSpanTree(t, root.Node(), spans, start)
				})
			}
		}
	}
}

// TestSpanTreeNotExecuted: a plan node that never ran (an index join's
// inner table) must still yield a span — with zero duration and no
// error.
func TestSpanTreeNotExecuted(t *testing.T) {
	ran := &StatsNode{Label: "indexjoin", Stats: Stats{Opens: 1, WallTime: time.Millisecond}}
	inner := &StatsNode{Label: "inner-table"} // present in the plan, never opened
	ran.Children = []*StatsNode{inner}
	start := time.Now()
	spans := SpanTree(ran, start)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[1].Dur != 0 || spans[1].Err != "" {
		t.Errorf("non-executed span = %+v, want zero duration and no error", spans[1])
	}
}

// TestSpanTreeNil: a nil tree yields no spans.
func TestSpanTreeNil(t *testing.T) {
	if spans := SpanTree(nil, time.Now()); spans != nil {
		t.Errorf("SpanTree(nil) = %v, want nil", spans)
	}
}

// TestConcurrentCountersScrape runs five instrumented BatchHashJoin
// trees at once over one shared Counters while other goroutines
// continuously read those counters and scrape the process metrics
// registry — the race detector (make race / the CI metrics job)
// verifies the atomic counters make cross-goroutine scraping safe.
func TestConcurrentCountersScrape(t *testing.T) {
	rrel := relation.New(relation.SchemeOf("R", "k"))
	srel := relation.New(relation.SchemeOf("S", "k"))
	for i := 0; i < 300; i++ {
		rrel.AppendRaw([]relation.Value{relation.Int(int64(i % 30))})
		srel.AppendRaw([]relation.Value{relation.Int(int64(i % 30))})
	}
	rt := storage.NewTable("R", rrel)
	st := storage.NewTable("S", srel)

	var c Counters
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // scrape the shared counters
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = c.TuplesRetrieved()
				_ = c.RowsProduced()
			}
		}
	}()
	go func() { // scrape the process registry (Prometheus text)
		defer wg.Done()
		var buf bytes.Buffer
		for {
			select {
			case <-done:
				return
			default:
				buf.Reset()
				obs.Default.WritePrometheus(&buf)
			}
		}
	}()

	var runs sync.WaitGroup
	errs := make(chan error, 5)
	for run := 0; run < 5; run++ {
		runs.Add(1)
		go func() {
			defer runs.Done()
			p, err := NewBatchHashJoin(
				Instrument(NewBatchScan(rt, &c, 0), "scan R", &c),
				Instrument(NewBatchScan(st, &c, 0), "scan S", &c),
				[]relation.Attr{relation.A("R", "k")}, []relation.Attr{relation.A("S", "k")}, nil, InnerMode, nil, 0)
			if err != nil {
				errs <- err
				return
			}
			root := Instrument(p, "hash join", &c)
			if _, err := CollectCtx(NewExecContext(context.Background(), nil), root, &c); err != nil {
				errs <- err
			}
		}()
	}
	runs.Wait()
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.TuplesRetrieved() == 0 || c.RowsProduced() == 0 {
		t.Error("counters did not accumulate across runs")
	}
}
