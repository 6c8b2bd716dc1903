package plancache

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freejoin/internal/obs"
)

func fp(s string) Fingerprint { return Fingerprint{Hash: 0, Canon: s} }

func TestCacheHitMiss(t *testing.T) {
	c := New(4)
	calls := 0
	compute := func() (any, error) { calls++; return "plan", nil }

	v, out, err := c.Do(fp("q1"), 1, compute)
	if err != nil || v != "plan" || out != Miss {
		t.Fatalf("first Do = (%v, %v, %v); want (plan, miss, nil)", v, out, err)
	}
	v, out, err = c.Do(fp("q1"), 1, compute)
	if err != nil || v != "plan" || out != Hit {
		t.Fatalf("second Do = (%v, %v, %v); want (plan, hit, nil)", v, out, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times; want 1", calls)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d; want 1", c.Len())
	}
}

// A lookup under a newer stats epoch must not reuse the old plan.
func TestCacheEpochInvalidation(t *testing.T) {
	c := New(4)
	inval0 := obs.PlanCacheInvalidations.Value()
	gen := 0
	compute := func() (any, error) { gen++; return fmt.Sprintf("plan-%d", gen), nil }

	c.Do(fp("q"), 1, compute)
	v, out, _ := c.Do(fp("q"), 2, compute)
	if out != Miss || v != "plan-2" {
		t.Fatalf("epoch-bumped Do = (%v, %v); want (plan-2, miss)", v, out)
	}
	if got := obs.PlanCacheInvalidations.Value() - inval0; got != 1 {
		t.Fatalf("invalidations delta = %d; want 1", got)
	}
	// The refreshed entry now hits under the new epoch.
	if _, out, _ := c.Do(fp("q"), 2, compute); out != Hit {
		t.Fatalf("post-refresh Do outcome = %v; want hit", out)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2)
	evict0 := obs.PlanCacheEvictions.Value()
	mk := func(s string) func() (any, error) { return func() (any, error) { return s, nil } }

	c.Do(fp("a"), 1, mk("A"))
	c.Do(fp("b"), 1, mk("B"))
	c.Do(fp("a"), 1, mk("A2")) // touch a: b is now LRU
	c.Do(fp("c"), 1, mk("C"))  // evicts b

	if c.Len() != 2 {
		t.Fatalf("Len = %d; want 2", c.Len())
	}
	if _, out, _ := c.Do(fp("a"), 1, mk("A3")); out != Hit {
		t.Fatalf("a should have survived; outcome = %v", out)
	}
	if _, out, _ := c.Do(fp("b"), 1, mk("B2")); out != Miss {
		t.Fatalf("b should have been evicted; outcome = %v", out)
	}
	if got := obs.PlanCacheEvictions.Value() - evict0; got < 1 {
		t.Fatalf("evictions delta = %d; want >= 1", got)
	}
}

// Errors are returned but never cached: the next lookup retries.
func TestCacheErrorNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	fail := func() (any, error) { return nil, boom }
	if _, out, err := c.Do(fp("q"), 1, fail); out != Miss || !errors.Is(err, boom) {
		t.Fatalf("failing Do = (%v, %v)", out, err)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached; Len = %d", c.Len())
	}
	ok := func() (any, error) { return "fine", nil }
	if v, out, err := c.Do(fp("q"), 1, ok); v != "fine" || out != Miss || err != nil {
		t.Fatalf("retry Do = (%v, %v, %v)", v, out, err)
	}
}

// N concurrent identical lookups run compute exactly once; the rest
// coalesce onto the flight. Run with -race.
func TestCacheSingleflight(t *testing.T) {
	c := New(4)
	const n = 32
	var calls atomic.Int64
	gate := make(chan struct{})
	compute := func() (any, error) {
		calls.Add(1)
		<-gate // hold the flight open until every goroutine has arrived
		return "plan", nil
	}

	var started, wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	values := make([]any, n)
	started.Add(n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			started.Done()
			v, out, err := c.Do(fp("q"), 1, compute)
			if err != nil {
				t.Error(err)
			}
			values[i], outcomes[i] = v, out
		}(i)
	}
	started.Wait()
	// started only says each goroutine is about to call Do. Open the gate
	// once all n are parked inside DoAt (one in compute, the rest on the
	// flight); a goroutine arriving after the flight landed would find the
	// cached entry and count as a Hit.
	for deadline := time.Now().Add(10 * time.Second); parkedInDoAt() < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d lookups reached the flight", parkedInDoAt(), n)
		}
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times; want 1", got)
	}
	misses, coalesced := 0, 0
	for i := range outcomes {
		if values[i] != "plan" {
			t.Fatalf("goroutine %d got %v", i, values[i])
		}
		switch outcomes[i] {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		}
	}
	if misses != 1 || coalesced != n-1 {
		t.Fatalf("outcomes: %d misses, %d coalesced; want 1, %d", misses, coalesced, n-1)
	}
}

// parkedInDoAt counts the goroutines blocked on a channel receive with
// Cache.DoAt on their stack.
func parkedInDoAt() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("[chan receive")) && bytes.Contains(g, []byte("plancache.(*Cache).DoAt(")) {
			n++
		}
	}
	return n
}

// Flights are scoped per epoch: a lookup under a different epoch must
// not share a plan being optimized against other statistics.
func TestCacheFlightEpochScope(t *testing.T) {
	c := New(4)
	gate := make(chan struct{})
	slow := func() (any, error) { <-gate; return "old", nil }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(fp("q"), 1, slow)
	}()

	// Wait until the epoch-1 flight is registered, then look up under
	// epoch 2: it must compute its own plan, not coalesce.
	for c.flightCount() == 0 {
		runtime.Gosched()
	}
	v, out, err := c.Do(fp("q"), 2, func() (any, error) { return "new", nil })
	if err != nil || v != "new" || out != Miss {
		t.Fatalf("epoch-2 Do = (%v, %v, %v); want (new, miss, nil)", v, out, err)
	}
	close(gate)
	wg.Wait()
}

func TestCacheInvalidate(t *testing.T) {
	c := New(4)
	c.Do(fp("a"), 1, func() (any, error) { return 1, nil })
	c.Do(fp("b"), 1, func() (any, error) { return 2, nil })
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatalf("Len after Invalidate = %d; want 0", c.Len())
	}
	if _, out, _ := c.Do(fp("a"), 1, func() (any, error) { return 1, nil }); out != Miss {
		t.Fatalf("post-Invalidate outcome = %v; want miss", out)
	}
}

func TestCacheDefaultCapacity(t *testing.T) {
	c := New(0)
	if c.cap != DefaultCapacity {
		t.Fatalf("cap = %d; want %d", c.cap, DefaultCapacity)
	}
}

// A plan computed against epoch E must not be cached once the catalog
// has moved past E: DoAt re-reads the epoch at insert time and skips the
// insert, so the next lookup re-optimizes instead of serving a plan that
// may mix old and new statistics.
func TestDoAtStaleInsertSkipped(t *testing.T) {
	c := New(4)
	stale0 := obs.PlanCacheStaleSkips.Value()
	var epoch atomic.Uint64
	epoch.Store(1)
	v, out, err := c.DoAt(fp("q"), epoch.Load, func() (any, error) {
		// The catalog changes while the DP runs (a concurrent Add).
		epoch.Store(2)
		return "stale-plan", nil
	})
	if err != nil || out != Miss || v != "stale-plan" {
		t.Fatalf("DoAt = (%v, %v, %v); want (stale-plan, miss, nil)", v, out, err)
	}
	if c.Len() != 0 {
		t.Fatalf("stale plan was cached (Len = %d); want 0", c.Len())
	}
	if got := obs.PlanCacheStaleSkips.Value() - stale0; got != 1 {
		t.Fatalf("stale-skip delta = %d; want 1", got)
	}
	// The next lookup (current epoch) must recompute and cache normally.
	v, out, err = c.DoAt(fp("q"), epoch.Load, func() (any, error) { return "fresh-plan", nil })
	if err != nil || out != Miss || v != "fresh-plan" {
		t.Fatalf("post-skip DoAt = (%v, %v, %v); want (fresh-plan, miss, nil)", v, out, err)
	}
	if _, out, _ = c.DoAt(fp("q"), epoch.Load, func() (any, error) { return "x", nil }); out != Hit {
		t.Fatalf("fresh plan did not hit (outcome %v)", out)
	}
}

// Race-targeted: concurrent epoch bumps and lookups must never let a
// hit observe a plan tagged with an epoch other than the one it was
// computed under. Run with -race.
func TestDoAtConcurrentEpochBumps(t *testing.T) {
	c := New(8)
	var epoch atomic.Uint64
	epoch.Store(1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the "concurrent Add" driving Table.onChange bumps
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				epoch.Add(1)
				runtime.Gosched()
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v, _, err := c.DoAt(fp("q"), epoch.Load, func() (any, error) {
					// The value records the epoch the "DP" ran under (read
					// after the lookup read, like the real optimizer reading
					// catalog stats).
					return epoch.Load(), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				got := v.(uint64)
				if got > epoch.Load() {
					t.Errorf("plan from the future: computed at %d, now %d", got, epoch.Load())
					return
				}
			}
		}()
	}
	close(stop)
	wg.Wait()
}

// Statement entries share the graph entries' LRU and epoch scoping: Get
// serves a value only under the epoch it was put at, Put skips a value
// whose epoch moved on, and neither counts a hit.
func TestStatementGetPut(t *testing.T) {
	c := New(2)
	hits0, stale0, inval0 := obs.PlanCacheHits.Value(), obs.PlanCacheStaleSkips.Value(), obs.PlanCacheInvalidations.Value()
	key := StatementKey("R -[R.a = S.a] S")
	epochAt := func(e uint64) func() uint64 { return func() uint64 { return e } }

	if _, ok := c.Get(key, 1); ok {
		t.Fatal("Get on an empty cache found a value")
	}
	c.Put(key, 1, epochAt(2), "stale")
	if _, ok := c.Get(key, 1); ok || c.Len() != 0 {
		t.Fatalf("a value put after its epoch moved was cached (Len = %d)", c.Len())
	}
	c.Put(key, 1, epochAt(1), "plan")
	if v, ok := c.Get(key, 1); !ok || v != "plan" {
		t.Fatalf("Get = (%v, %v); want (plan, true)", v, ok)
	}
	if _, ok := c.Get(key, 2); ok || c.Len() != 0 {
		t.Fatalf("Get under a newer epoch served or kept the entry (Len = %d)", c.Len())
	}
	if got := obs.PlanCacheHits.Value() - hits0; got != 0 {
		t.Fatalf("Get counted %d hits; want 0", got)
	}
	if got := obs.PlanCacheStaleSkips.Value() - stale0; got != 1 {
		t.Fatalf("stale-skip delta = %d; want 1", got)
	}
	if got := obs.PlanCacheInvalidations.Value() - inval0; got != 1 {
		t.Fatalf("invalidations delta = %d; want 1", got)
	}

	// One LRU: a statement and two graphs in a cache of two evict the
	// least recently used.
	c.Put(key, 1, epochAt(1), "plan")
	c.Do(fp("g1"), 1, func() (any, error) { return "g1", nil })
	c.Do(fp("g2"), 1, func() (any, error) { return "g2", nil })
	if _, ok := c.Get(key, 1); ok || c.Len() != 2 {
		t.Fatalf("statement survived two newer graph entries in a cache of 2 (Len = %d)", c.Len())
	}
}

// A statement key never equals a fingerprint's canonical text, and the
// configuration and the text cannot trade places.
func TestStatementKeyDistinct(t *testing.T) {
	keys := map[string]string{}
	for name, k := range map[string]string{
		"plain":        StatementKey("R -[R.a = S.a] S"),
		"config":       StatementKey("R -[R.a = S.a] S", "config: spill"),
		"two configs":  StatementKey("R -[R.a = S.a] S", "config: spill", "config: batch=off"),
		"config text":  StatementKey("config: spill\n\x00R -[R.a = S.a] S"),
		"other config": StatementKey("R -[R.a = S.a] S", "config: batch=off"),
	} {
		if prev, dup := keys[k]; dup {
			t.Fatalf("statement keys %q and %q collide", prev, name)
		}
		keys[k] = name
		if len(k) >= len("nodes:") && k[:len("nodes:")] == "nodes:" {
			t.Fatalf("statement key %q looks like a fingerprint", k)
		}
	}
}
