package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"freejoin/internal/server"
)

// The acceptance path of the observability PR: run queries through the
// shell, then check the metrics text, the trace file, and the
// monitoring endpoint actually reflect them.

func TestShellMetricsCommand(t *testing.T) {
	out := runScript(t, `
table R(a) = (1), (2)
table S(a) = (2), (3)
query R ->[R.a = S.a] S
explain analyze R -[R.a = S.a] S
metrics
quit
`)
	// Lifecycle counters are process-wide, so other tests contribute too;
	// the property is that after two queries they are non-zero and the
	// strategy and latency families are present.
	re := regexp.MustCompile(`oj_queries_completed_total (\d+)`)
	m := re.FindStringSubmatch(out)
	if m == nil || m[1] == "0" {
		t.Fatalf("metrics output missing non-zero oj_queries_completed_total:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE oj_queries_completed_total counter",
		`oj_optimize_strategy_total{strategy="reordered"}`,
		"# TYPE oj_query_duration_seconds histogram",
		`oj_query_duration_seconds_bucket{le="+Inf"}`,
		"oj_rows_produced_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestShellTraceExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	runScript(t, fmt.Sprintf(`
table R(a) = (1), (2)
table S(a) = (2), (3)
trace on %s
explain analyze R ->[R.a = S.a] S
trace off
quit
`, path))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	phases := map[string]bool{}
	operators := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Cat {
		case "phase":
			phases[ev.Name] = true
		case "operator":
			operators++
		}
	}
	for _, want := range []string{"parse", "analyze", "optimize", "build", "execute"} {
		if !phases[want] {
			t.Errorf("trace missing %q phase span; phases = %v", want, phases)
		}
	}
	// R ⟕ S under the DP: at least the two scans and the join.
	if operators < 3 {
		t.Errorf("trace has %d operator spans, want >= 3", operators)
	}
}

// flagConfig parses args with the process-level flags ojshell
// registers.
func flagConfig(t *testing.T, args ...string) server.Config {
	t.Helper()
	var cfg server.Config
	fs := flag.NewFlagSet("ojshell", flag.ContinueOnError)
	server.RegisterProcessFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestShellMetricsAddr(t *testing.T) {
	var out strings.Builder
	sh := newTestShell(t, flagConfig(t, "-metrics-addr", "127.0.0.1:0"), &out)
	if sh.mon == nil {
		t.Fatal("monitoring server not started")
	}
	addr := sh.mon.Addr()
	run(t, sh, &out, `
table R(a) = (1), (2)
query R
`)
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "oj_queries_started_total") {
		t.Errorf("/metrics missing query counters:\n%s", body)
	}
	resp, err = http.Get("http://" + addr + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var recs []struct {
		Query string `json:"query"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatalf("/debug/queries is not JSON: %v", err)
	}
	resp.Body.Close()
	if len(recs) == 0 || recs[0].Query != "query R" {
		t.Errorf("/debug/queries = %v, want newest query %q first", recs, "query R")
	}
	sh.Close()
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Error("Close must stop the monitoring server")
	}
}

func TestShellSlowQueryLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slow.jsonl")
	var b strings.Builder
	sh := newTestShell(t, flagConfig(t, "-slow-query", "1ns", "-slow-query-log", path, "-slow-query-log-max", "1MB"), &b)
	out := run(t, sh, &b, `
table R(a) = (1), (2)
table S(a) = (2), (3)
query R -[R.a = S.a] S
quit
`)
	if n := strings.Count(out, "slow query ("); n != 1 {
		t.Errorf("want exactly 1 slow-query entry, got %d:\n%s", n, out)
	}
	for _, want := range []string{"strategy: reordered", "plan: ", "rows: "} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query entry missing %q:\n%s", want, out)
		}
	}
	sh.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), "\n"); n != 1 || !strings.Contains(string(raw), "query R -[R.a = S.a] S") {
		t.Errorf("slow-query log holds %d lines, want the one query:\n%s", n, raw)
	}
}
