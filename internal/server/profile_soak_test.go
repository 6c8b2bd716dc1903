package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"freejoin/internal/obs"
	"freejoin/internal/workload"
)

// TestServerSoakProfileAttribution is the continuous-profiling contract
// end to end: while 16 in-process runners keep the core saturated, the
// monitoring side is scraped concurrently —
//
//   - /debug/pprof/profile (1s CPU profile) resolves samples back to
//     query_id and fingerprint goroutine labels, so profiling data is
//     attributable per query without any cooperation from the profiler
//   - /debug/queries?live=1 snapshots are consistent: rows-so-far never
//     decreases for a given query ID, and phases are published
//   - /metrics carries the runtime oj_go_* gauges and, with
//     ?exemplars=1, latency-bucket exemplars naming recent query IDs
//
// The profile assertions skip (never flake) when the OS profiler
// delivers no samples at all, but with 16 busy runners for the whole
// window that is a pathological machine, not a normal run.
func TestServerSoakProfileAttribution(t *testing.T) {
	const runners = 16
	srv := startTestServer(t, Config{
		MaxConcurrent: 4,
		QueueDepth:    runners, // deep enough that nothing is shed
		PoolBytes:     1 << 20,
		MetricsAddr:   "127.0.0.1:0",
		Pprof:         true,
		RuntimeSample: 10 * time.Millisecond,
	})
	core := srv.Core()
	base := "http://" + srv.MetricsAddr()

	rnd := rand.New(rand.NewSource(7))
	queries, names := workload.QueryMix(rnd, 8)
	for _, name := range names {
		core.Catalog().AddRelation(name, workload.RandomRelation(rnd, name, 80))
	}
	// Load: each runner loops its own session until stop. In-process
	// sessions keep the CPU in the query lifecycle, where the pprof
	// labels live.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < runners; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess := NewSession(core)
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sess.runQuery(context.Background(), "profile soak", queries[i%len(queries)], false)
			}
		}(r)
	}

	// Scraper: hammers the read-only monitoring surface while queries
	// run, checking live-progress monotonicity per query ID.
	maxRows := make(map[uint64]int64)
	sawLive := false
	var scrapeErrs []string
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var live []obs.LiveQuery
			if err := getJSON(base+"/debug/queries?live=1", &live); err != nil {
				scrapeErrs = append(scrapeErrs, fmt.Sprintf("live scrape: %v", err))
				return
			}
			for _, lq := range live {
				sawLive = true
				if lq.Rows < maxRows[lq.ID] {
					scrapeErrs = append(scrapeErrs,
						fmt.Sprintf("query %d rows went backwards: %d after %d", lq.ID, lq.Rows, maxRows[lq.ID]))
					return
				}
				maxRows[lq.ID] = lq.Rows
			}
			if _, err := getBody(base + "/metrics"); err != nil {
				scrapeErrs = append(scrapeErrs, fmt.Sprintf("metrics scrape: %v", err))
				return
			}
		}
	}()

	// The profile capture is the pacing element: the handler blocks for
	// the requested second while the load and the scrapers run.
	profBody, err := getBody(base + "/debug/pprof/profile?seconds=1")
	close(stop)
	wg.Wait()
	<-scrapeDone
	if err != nil {
		t.Fatalf("profile capture: %v", err)
	}
	for _, e := range scrapeErrs {
		t.Error(e)
	}
	if !sawLive {
		t.Error("live view never showed an in-flight query under 16 runners")
	}

	// Post-load monitoring state: runtime gauges and latency exemplars.
	metricsBody, err := getBody(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metricsBody, "oj_go_goroutines") {
		t.Error("/metrics missing runtime gauge oj_go_goroutines")
	}
	if strings.Contains(metricsBody, "# {query_id=") {
		t.Error("plain /metrics scrape leaked exemplars")
	}
	omBody, err := getBody(base + "/metrics?exemplars=1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(omBody, `oj_query_duration_seconds`) || !strings.Contains(omBody, "# {query_id=") {
		t.Error("?exemplars=1 scrape carries no latency exemplars")
	}

	// The captured CPU profile attributes to queries by label: the
	// toolchain's own reader totals the samples per label key.
	profPath := filepath.Join(t.TempDir(), "cpu.prof")
	if err := os.WriteFile(profPath, []byte(profBody), 0o600); err != nil {
		t.Fatal(err)
	}
	tags := pprofTool(t, "-tags", profPath)
	totals := labelTotals(tags)
	if totals["query_id"] == 0 && totals["fingerprint"] == 0 &&
		strings.Contains(pprofTool(t, "-top", profPath), "Total samples = 0 ") {
		t.Skip("profiler delivered zero samples (overloaded machine); nothing to attribute")
	}
	if totals["query_id"] <= 0 {
		t.Errorf("no CPU samples carry query_id labels:\n%s", tags)
	}
	if totals["fingerprint"] <= 0 {
		t.Errorf("no CPU samples carry fingerprint labels:\n%s", tags)
	}
	t.Logf("profile soak: %v under query_id, %v under fingerprint", totals["query_id"], totals["fingerprint"])
}

// pprofTool runs `go tool pprof` with args and returns its output.
func pprofTool(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"tool", "pprof"}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// labelTotals reads the per-key totals of `go tool pprof -tags` output,
// whose key lines read " query_id: Total 480.0ms".
func labelTotals(tags string) map[string]time.Duration {
	totals := map[string]time.Duration{}
	for _, line := range strings.Split(tags, "\n") {
		key, total, ok := strings.Cut(strings.TrimSpace(line), ": Total ")
		if !ok {
			continue
		}
		if d, err := time.ParseDuration(total); err == nil {
			totals[key] = d
		}
	}
	return totals
}

// getBody GETs a monitoring URL and returns the body, insisting on 200.
func getBody(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b), nil
}

// getJSON GETs a monitoring URL and decodes the JSON body into v.
func getJSON(url string, v any) error {
	body, err := getBody(url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), v)
}
