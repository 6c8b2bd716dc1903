package server

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"freejoin/internal/parse"
	"freejoin/internal/relation"
)

// wideQueries are two outerjoins that each preserve 6,000 rows of four
// 7-9 digit columns, over wideCore's tables.
var wideQueries = []string{
	"W1 ->[W1.a = W2.a] W2",
	"W2 ->[W2.b = W1.b] W1",
}

// wideCore returns a core holding two 6,000-row tables W1(a, b) and
// W2(a, b): a is a permutation times 1,000 (W1) or 2,000 (W2), so half
// of W1 finds a W2 partner on a; b is another permutation times 100,003,
// so every row finds one on b.
func wideCore(t testing.TB) *Core {
	t.Helper()
	core, err := NewCore(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(5))
	for _, w := range []struct {
		name string
		step int64
	}{{"W1", 1000}, {"W2", 2000}} {
		rel := relation.New(relation.SchemeOf(w.name, "a", "b"))
		bs := rnd.Perm(6000)
		for i, p := range rnd.Perm(6000) {
			rel.MustAppend(relation.Int(int64(p)*w.step), relation.Int(int64(bs[i])*100003))
		}
		core.Catalog().AddRelation(w.name, rel)
	}
	return core
}

// TestRecycledResultsStayRendered: two sessions alternate the two wide
// queries concurrently, so each result's slabs go back to the pools and
// the other session's next result is built in them at once. Every
// Output must equal the reference algebra's rendering: a result recycled
// before it is rendered, or a slab still read after it went back, shows
// as a wrong table (or under -race).
func TestRecycledResultsStayRendered(t *testing.T) {
	core := wideCore(t)
	want := make([]string, len(wideQueries))
	for i, src := range wideQueries {
		q, err := parse.Expr(src)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := q.Eval(core.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		if ref.Len() != 6000 {
			t.Fatalf("%s: reference has %d rows, want 6000", src, ref.Len())
		}
		want[i] = ref.String()
	}
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewSession(core)
			for i := 0; i < 12; i++ {
				k := (g + i) % len(wideQueries)
				r := s.SafeExec(context.Background(), "query "+wideQueries[k])
				if !r.OK || r.Output != want[k] {
					errs <- fmt.Sprintf("session %d, query %d: %s answered differently from the reference (ok=%v %s)",
						g, i, wideQueries[k], r.OK, r.Error)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
