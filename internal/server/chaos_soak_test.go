package server

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"freejoin/internal/chaos"
	"freejoin/internal/obs"
	"freejoin/internal/workload"
)

// chaosSoakSeed fixes the fault schedule; `make chaos` replays it.
const chaosSoakSeed = 20260808

// TestChaosSoak is the end-to-end goodput contract under injected
// faults: 16 retrying clients of mixed shapes (cache hits, governor
// trips, spilling queries, panic bait) drive one server whose listener
// injects a 10% per-I/O fault mix — connection drops at arbitrary byte
// offsets, partial writes, stalls, corrupted command bytes, garbage
// injection — while a panic hook fires inside query execution. The
// server must degrade only in typed, accounted ways:
//
//   - every response that arrives intact and OK is bag-correct against
//     a single-threaded reference (sorted rendered lines)
//   - every panic surfaces as internal_error on the bait queries only
//   - the tracer reconciles: started = completed + failed + rejected,
//     nothing left active
//   - admission pools, spill files and goroutines all drain to zero
//   - goodput stays real: at least half the requests succeed through
//     the faults, and zero would mean the chaos config ate everything
func TestChaosSoak(t *testing.T) {
	const (
		clients   = 16
		perClient = 12
	)
	spillDir := t.TempDir()
	srv := startTestServer(t, Config{
		MaxConcurrent:   4,
		QueueDepth:      8,
		PoolBytes:       1 << 20,
		SpillPoolBytes:  1 << 20,
		QueryMemBytes:   1 << 16,
		QuerySpillBytes: 1 << 18,
		SpillDir:        spillDir,
		IdleTimeout:     2 * time.Second,
		WriteTimeout:    2 * time.Second,
		ShedWait:        50 * time.Millisecond,
		Chaos:           &chaos.Config{Seed: chaosSoakSeed, Rate: 0.10, MaxStall: 2 * time.Millisecond},
		MetricsAddr:     "127.0.0.1:0",
		Pprof:           true,
		RuntimeSample:   20 * time.Millisecond,
	})
	core := srv.Core()

	rnd := rand.New(rand.NewSource(chaosSoakSeed))
	queries, names := workload.QueryMix(rnd, 10)
	for _, name := range names {
		core.Catalog().AddRelation(name, workload.RandomRelation(rnd, name, 50))
	}
	core.Catalog().AddRelation("PANICBAIT", workload.RandomRelation(rnd, "PANICBAIT", 10))

	// Single-threaded reference bags, as sorted rendered lines — the
	// comparison TCP clients can make, robust to row order across plans.
	refSess := NewSession(core)
	refs := make([]string, len(queries))
	for i, q := range queries {
		resp, _ := refSess.runQuery(context.Background(), "ref", q, false)
		if !resp.OK {
			t.Fatalf("reference run of %q failed: %s", q, resp.Error)
		}
		refs[i] = sortedLines(resp.Output)
	}

	// Injected panics ride along: every bait query panics mid-execute,
	// with the admission grant held.
	SetPanicHook(func(p, label string) {
		if p == "execute" && strings.Contains(label, "PANICBAIT") {
			panic("chaos soak injected panic")
		}
	})
	defer SetPanicHook(nil)

	started0 := obs.QueriesStarted.Value()
	completed0 := obs.QueriesCompleted.Value()
	failed0 := obs.QueriesFailed.Value()
	rejected0 := obs.QueriesRejected.Value()
	active0 := obs.QueriesActive.Value()
	panics0 := obs.ServerPanics.Value()
	injected0 := chaosInjections()
	goroutines0 := runtime.NumGoroutine()

	cls := make([]*workload.Client, clients)
	for i := range cls {
		cls[i] = &workload.Client{
			Addr:        srv.Addr(),
			Rand:        rand.New(rand.NewSource(chaosSoakSeed + int64(i))),
			MaxAttempts: 4,
			RetryBudget: 2 * time.Second,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
		}
		// Two stressed traffic classes: tiny governed grants (typed
		// resource trips) and spilling execution (run files under chaos).
		// Config commands ride the same faulty wire; a lost set only
		// shifts that client's class, never correctness.
		switch i % 5 {
		case 3:
			cls[i].Do("set memory_limit 64B", true)
		case 4:
			cls[i].Do("set memory_limit 2KB", true)
			cls[i].Do("set spill on", true)
		}
	}

	var mu sync.Mutex
	var soakErrs []string
	note := func(format string, args ...any) {
		mu.Lock()
		soakErrs = append(soakErrs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	d := &workload.Driver{
		Clients:   clients,
		PerClient: perClient,
		Exec: func(client, iter int) workload.Outcome {
			cl := cls[client]
			if iter%6 == 5 { // panic bait
				// The hook panics on every executed bait query, so OK can
				// never come back. A chaos fault can eat the command's
				// bytes first (idle_timeout, dropped conn) — those are
				// fine; the panics>0 assertion below proves the isolation
				// path itself was exercised.
				resp, err := cl.Do("query PANICBAIT", true)
				if err == nil && resp.OK {
					note("bait query succeeded: %+v", resp)
				}
				return workload.OutcomeFailed
			}
			qi := (client*perClient + iter) % len(queries)
			resp, err := cl.Query(queries[qi])
			switch {
			case err != nil:
				// Connection killed by an injected fault with the outcome
				// unknown, or retries exhausted: a failure, but when a typed
				// rejection was the last word it stays a rejection.
				if resp.Code == CodeAdmissionRejected || resp.Code == CodeRetryAfter {
					return workload.OutcomeRejected
				}
				return workload.OutcomeFailed
			case resp.OK:
				// A completed query is bag-correct or it is a bug — no
				// chaos fault, governor class or retry path excuses a
				// wrong answer that claims OK.
				if got := sortedLines(resp.Output); got != refs[qi] {
					note("client %d query %d diverges from reference bag", client, qi)
				}
				return workload.OutcomeOK
			case resp.Code == CodeInternal:
				note("non-bait query drew internal_error: %s", resp.Error)
				return workload.OutcomeFailed
			default:
				// Typed errors under chaos: parse/unknown_command from
				// corrupted or garbage-glued lines, resource trips from the
				// governed class, protocol/idle hygiene codes, cancelled
				// from dropped peers. All clean failures.
				return workload.OutcomeFailed
			}
		},
	}
	// The monitoring surface is scraped throughout the chaos run: the
	// metrics listener is not behind the fault injector, so /metrics,
	// the live-query view and the pprof index must answer cleanly while
	// the query side drops, stalls and panics. Runs under -race, so any
	// scrape-vs-execution race is a failure, not a flake.
	scrapeStop := make(chan struct{})
	scrapeDone := make(chan struct{})
	mon := "http://" + srv.MetricsAddr()
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-scrapeStop:
				return
			default:
			}
			for _, path := range []string{
				"/metrics", "/metrics?exemplars=1",
				"/debug/queries", "/debug/queries?live=1",
				"/healthz", "/debug/pprof/cmdline",
			} {
				if _, err := getBody(mon + path); err != nil {
					note("monitoring scrape %s: %v", path, err)
					return
				}
			}
			var live []obs.LiveQuery
			if err := getJSON(mon+"/debug/queries?live=1", &live); err != nil {
				note("live view not decodable mid-chaos: %v", err)
				return
			}
		}
	}()

	rep := d.Run()
	close(scrapeStop)
	<-scrapeDone
	for _, cl := range cls {
		cl.Close()
	}
	for _, e := range soakErrs {
		t.Error(e)
	}
	t.Logf("chaos soak: %s (panics=%d injections=%d)", rep,
		obs.ServerPanics.Value()-panics0, chaosInjections()-injected0)

	// Goodput through the faults.
	if rep.Total != clients*perClient {
		t.Fatalf("drove %d requests, want %d", rep.Total, clients*perClient)
	}
	if rep.OK() < rep.Total/2 {
		t.Errorf("goodput collapsed: %d/%d requests succeeded", rep.OK(), rep.Total)
	}
	// The chaos layer actually fired, and so did the panics.
	if chaosInjections() == injected0 {
		t.Error("no faults were injected — the soak tested nothing")
	}
	if obs.ServerPanics.Value() == panics0 {
		t.Error("no panics fired — the bait class tested nothing")
	}

	// Tracer reconciliation: retries re-execute queries, so the driver
	// total is a floor, and the identity must hold exactly.
	started := obs.QueriesStarted.Value() - started0
	completed := obs.QueriesCompleted.Value() - completed0
	failed := obs.QueriesFailed.Value() - failed0
	rejected := obs.QueriesRejected.Value() - rejected0
	if started != completed+failed+rejected {
		t.Errorf("tracer does not reconcile: started %d != completed %d + failed %d + rejected %d",
			started, completed, failed, rejected)
	}
	if act := obs.QueriesActive.Value() - active0; act != 0 {
		t.Errorf("%d queries still active after the soak", act)
	}

	// Everything drains: admission, spill files, goroutines.
	waitFor(t, "admission drained", func() bool {
		st := core.Admission().Stats()
		return st.Active == 0 && st.Queued == 0 && st.UsedBytes == 0 && st.UsedSpillBytes == 0
	})
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if runs, _ := filepath.Glob(filepath.Join(spillDir, "ojspill-*")); len(runs) != 0 {
		t.Errorf("%d spill run files leaked: %v", len(runs), runs)
	}
	waitForGoroutines(t, goroutines0)
}

// sortedLines canonicalizes a rendered relation for bag comparison:
// identical bags render the same multiset of lines in some order.
func sortedLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// chaosInjections sums the oj_chaos_injections_total series.
func chaosInjections() int64 {
	return obs.ChaosDrops.Value() + obs.ChaosPartialWrites.Value() +
		obs.ChaosStalls.Value() + obs.ChaosCorruptions.Value() + obs.ChaosInjected.Value()
}
