package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// testClient is one protocol connection: send a command line, decode
// the one-line JSON response.
type testClient struct {
	t    testing.TB
	conn net.Conn
	dec  *json.Decoder
}

func dialServer(t testing.TB, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &testClient{t: t, conn: conn, dec: json.NewDecoder(conn)}
	t.Cleanup(func() { conn.Close() })
	hello := c.recv()
	if !hello.OK || !strings.Contains(hello.Output, "session") {
		t.Fatalf("hello = %+v", hello)
	}
	return c
}

func (c *testClient) recv() Response {
	c.t.Helper()
	var r Response
	if err := c.dec.Decode(&r); err != nil {
		c.t.Fatalf("decode response: %v", err)
	}
	return r
}

func (c *testClient) send(line string) Response {
	c.t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		c.t.Fatalf("send %q: %v", line, err)
	}
	return c.recv()
}

func (c *testClient) mustOK(line string) Response {
	c.t.Helper()
	r := c.send(line)
	if !r.OK {
		c.t.Fatalf("%q failed: %s (%s)", line, r.Error, r.Code)
	}
	return r
}

func startTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestServerEndToEnd(t *testing.T) {
	srv := startTestServer(t, Config{})
	c := dialServer(t, srv.Addr())

	if r := c.mustOK("ping"); r.Output != "pong" {
		t.Fatalf("ping = %+v", r)
	}
	c.mustOK("table R(a, b) = (1, 10), (2, 20), (3, 30)")
	c.mustOK("table S(a, c) = (2, 'x'), (3, 'y'), (4, 'z')")
	c.mustOK("index R a")
	if r := c.mustOK("tables"); r.Rows != 2 {
		t.Fatalf("tables = %+v", r)
	}

	q := "R -[R.a = S.a] S"
	r := c.mustOK("query " + q)
	if r.Rows != 2 || r.Tuples == 0 {
		t.Fatalf("join result = %+v", r)
	}
	if !strings.Contains(r.Output, "R.a") {
		t.Fatalf("rendered output missing header: %q", r.Output)
	}

	if r := c.mustOK("explain " + q); r.Plan == "" || !strings.Contains(r.Output, "plan") {
		t.Fatalf("explain = %+v", r)
	}

	c.mustOK("prepare pq " + q)
	r = c.mustOK("execute pq")
	if r.Rows != 2 {
		t.Fatalf("execute = %+v", r)
	}
	if r.Cache != "hit" {
		t.Fatalf("prepared re-execution should hit the plan cache, got %q", r.Cache)
	}

	if r := c.mustOK("set"); !strings.Contains(r.Output, "timeout: off") {
		t.Fatalf("set = %+v", r)
	}
	c.mustOK("set timeout 5s")
	c.mustOK("set memory_limit 64KB")
	if r := c.mustOK("set"); !strings.Contains(r.Output, "65536 bytes") {
		t.Fatalf("set after memory_limit = %+v", r)
	}
	if r := c.mustOK("stats"); !strings.Contains(r.Output, "tables: 2") {
		t.Fatalf("stats = %+v", r)
	}

	// Error codes.
	if r := c.send("query R -["); r.OK || r.Code != CodeParse {
		t.Fatalf("parse error = %+v", r)
	}
	if r := c.send("bogus"); r.OK || r.Code != CodeUnknownCommand {
		t.Fatalf("unknown command = %+v", r)
	}
	if r := c.send("execute nothere"); r.OK || r.Code != CodeUsage {
		t.Fatalf("missing prepared = %+v", r)
	}

	if r := c.send("quit"); !r.OK || r.Output != "bye" {
		t.Fatalf("quit = %+v", r)
	}
}

// "set strategy yannakakis" forces the acyclic fast path session-wide:
// explain shows semireduce steps, the query still answers correctly, and
// flipping back to dp is not served the yannakakis plan from the shared
// cache (the strategy keys the fingerprint).
func TestServerSetStrategy(t *testing.T) {
	srv := startTestServer(t, Config{})
	c := dialServer(t, srv.Addr())
	c.mustOK("table R(a) = (1), (2)")
	c.mustOK("table S(a) = (2), (3)")
	c.mustOK("table T(a) = (2), (4)")
	if r := c.mustOK("set"); !strings.Contains(r.Output, "strategy: dp") {
		t.Fatalf("default set output missing strategy:\n%s", r.Output)
	}
	c.mustOK("set strategy yannakakis")
	if r := c.mustOK("set"); !strings.Contains(r.Output, "strategy: yannakakis") {
		t.Fatalf("set output missing strategy:\n%s", r.Output)
	}
	q := "(R -[R.a = S.a] S) -[S.a = T.a] T"
	if r := c.mustOK("explain " + q); !strings.Contains(r.Output, "semireduce") {
		t.Fatalf("yannakakis explain missing semireduce:\n%s", r.Output)
	}
	if r := c.mustOK("query " + q); r.Rows != 1 {
		t.Fatalf("query rows = %d, want 1", r.Rows)
	}
	if r := c.send("set strategy bogus"); r.OK || r.Code != CodeUsage {
		t.Fatalf("bogus strategy = %+v", r)
	}
	c.mustOK("set strategy dp")
	if r := c.mustOK("explain " + q); strings.Contains(r.Output, "semireduce") {
		t.Fatalf("dp explain served the yannakakis plan:\n%s", r.Output)
	}
}

// Config.Strategy seeds every new session's planner strategy.
func TestServerStrategyDefault(t *testing.T) {
	srv := startTestServer(t, Config{Strategy: "auto"})
	c := dialServer(t, srv.Addr())
	if r := c.mustOK("set"); !strings.Contains(r.Output, "strategy: auto") {
		t.Fatalf("set output missing configured strategy:\n%s", r.Output)
	}
}

// Sessions share one catalog and one plan cache: a table defined in one
// session is queryable from another, and a plan cached by one session is
// a hit for the next.
func TestServerSharedCoreAcrossSessions(t *testing.T) {
	srv := startTestServer(t, Config{})
	c1 := dialServer(t, srv.Addr())
	c1.mustOK("table T(a) = (1), (2)")
	c1.mustOK("table U(a) = (2), (3)")
	q := "T ->[T.a = U.a] U"
	first := c1.mustOK("query " + q)
	if first.Cache != "miss" {
		t.Fatalf("first execution cache = %q", first.Cache)
	}

	c2 := dialServer(t, srv.Addr())
	second := c2.mustOK("query " + q)
	if second.Cache != "hit" {
		t.Fatalf("cross-session cache = %q, want hit", second.Cache)
	}
	if second.Rows != first.Rows {
		t.Fatalf("rows diverge across sessions: %d vs %d", second.Rows, first.Rows)
	}
}

// With the only slot pinned and no wait queue, the server sheds load
// with a typed admission rejection rather than overcommitting.
func TestServerAdmissionRejectsWhenSaturated(t *testing.T) {
	srv := startTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	c := dialServer(t, srv.Addr())
	c.mustOK("table R(a) = (1)")
	c.mustOK("table S(a) = (1)")

	g, err := srv.Core().Admission().Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := c.send("query R -[R.a = S.a] S")
	if r.OK || r.Code != CodeAdmissionRejected {
		t.Fatalf("saturated query = %+v, want %s", r, CodeAdmissionRejected)
	}
	g.Release()
	if r := c.mustOK("query R -[R.a = S.a] S"); r.Rows != 1 {
		t.Fatalf("after release = %+v", r)
	}
}

// A session deadline covers the admission wait: a query stuck in the
// queue times out as cancelled (a failure), not rejected.
func TestServerTimeoutWhileQueued(t *testing.T) {
	srv := startTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 8})
	c := dialServer(t, srv.Addr())
	c.mustOK("table R(a) = (1)")
	c.mustOK("table S(a) = (1)")
	c.mustOK("set timeout 50ms")

	g, err := srv.Core().Admission().Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	start := time.Now()
	r := c.send("query R -[R.a = S.a] S")
	if r.OK || r.Code != CodeCancelled {
		t.Fatalf("queued timeout = %+v, want %s", r, CodeCancelled)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("timeout took %v", d)
	}
}

// A per-query memory request larger than the whole pool is rejected as
// oversized immediately — waiting could never help.
func TestServerOversizedRequestRejected(t *testing.T) {
	srv := startTestServer(t, Config{PoolBytes: 1 << 10})
	c := dialServer(t, srv.Addr())
	c.mustOK("table R(a) = (1)")
	c.mustOK("table S(a) = (1)")
	c.mustOK("set memory_limit 1MB")
	r := c.send("query R -[R.a = S.a] S")
	if r.OK || r.Code != CodeAdmissionRejected {
		t.Fatalf("oversized = %+v", r)
	}
	if !strings.Contains(r.Error, "oversized") {
		t.Fatalf("oversized error text = %q", r.Error)
	}
}

// A tiny per-query grant trips the governor mid-join: a typed resource
// failure, and the pool is returned.
func TestServerGovernorTrip(t *testing.T) {
	srv := startTestServer(t, Config{PoolBytes: 1 << 20})
	c := dialServer(t, srv.Addr())
	var rows []string
	for i := 0; i < 200; i++ {
		rows = append(rows, fmt.Sprintf("(%d)", i%5))
	}
	c.mustOK("table big(a) = " + strings.Join(rows, ", "))
	var rows2 []string
	for i := 0; i < 200; i++ {
		rows2 = append(rows2, fmt.Sprintf("(%d)", i%5))
	}
	c.mustOK("table big2(b) = " + strings.Join(rows2, ", "))
	c.mustOK("set memory_limit 64B")
	r := c.send("query big -[big.a = big2.b] big2")
	if r.OK || r.Code != CodeResource {
		t.Fatalf("governor trip = %+v, want %s", r, CodeResource)
	}
	if st := srv.Core().Admission().Stats(); st.Active != 0 || st.UsedBytes != 0 {
		t.Fatalf("pool leaked after trip: %+v", st)
	}
}

// Close is graceful: connected clients observe EOF, repeated Close is
// a no-op, and the metrics side shuts down with the server.
func TestServerGracefulClose(t *testing.T) {
	srv := startTestServer(t, Config{MetricsAddr: "127.0.0.1:0"})
	if srv.MetricsAddr() == "" {
		t.Fatal("metrics side not started")
	}
	metricsAddr := srv.MetricsAddr()
	c := dialServer(t, srv.Addr())
	c.mustOK("ping")
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The client connection is closed out from under us.
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var r Response
	if err := c.dec.Decode(&r); err == nil {
		t.Fatal("connection still alive after Close")
	}
	// Both listeners are really gone.
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Fatal("query listener still accepting after Close")
	}
	if conn, err := net.DialTimeout("tcp", metricsAddr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Fatal("metrics listener still accepting after Close")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

// "set batch_size N" changes a session's rows per batch and must not be
// served the default-size plan from the shared cache (the size keys the
// fingerprint); results agree across sizes. "off" is a usage error: the
// batch operators are the only evaluators.
func TestServerSetBatchSize(t *testing.T) {
	srv := startTestServer(t, Config{})
	c := dialServer(t, srv.Addr())
	c.mustOK("table R(a) = (1), (2)")
	c.mustOK("table S(a) = (2), (3)")
	if r := c.mustOK("set"); !strings.Contains(r.Output, "batch_size: 1024 (default)") {
		t.Fatalf("default set output missing batch_size:\n%s", r.Output)
	}
	q := "R ->[R.a = S.a] S"
	if r := c.mustOK("query " + q); r.Rows != 2 {
		t.Fatalf("batched query rows = %d, want 2", r.Rows)
	}
	if r := c.send("set batch_size off"); r.OK || r.Code != CodeUsage {
		t.Fatalf("set batch_size off = %+v, want a usage error", r)
	}
	c.mustOK("set batch_size 7")
	r := c.mustOK("query " + q)
	if r.Rows != 2 {
		t.Fatalf("size-7 query rows = %d, want 2", r.Rows)
	}
	if r.Cache == "hit" {
		t.Fatalf("size-7 query hit the default-size plan in the shared cache")
	}
	c.mustOK("set batch_size 128")
	if r := c.mustOK("set"); !strings.Contains(r.Output, "batch_size: 128") {
		t.Fatalf("set output missing explicit batch_size:\n%s", r.Output)
	}
	if r := c.send("set batch_size -3"); r.OK || r.Code != CodeUsage {
		t.Fatalf("bad batch_size = %+v", r)
	}
}

// Config.BatchSize seeds every new session's batch size.
func TestServerBatchSizeDefault(t *testing.T) {
	srv := startTestServer(t, Config{BatchSize: 64})
	c := dialServer(t, srv.Addr())
	if r := c.mustOK("set"); !strings.Contains(r.Output, "batch_size: 64") {
		t.Fatalf("seeded set output missing batch_size 64:\n%s", r.Output)
	}
}

// explain analyze runs the query lifecycle: a full admission queue sheds
// it with the code query gets.
func TestServerExplainAnalyzeAdmission(t *testing.T) {
	srv := startTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	c := dialServer(t, srv.Addr())
	c.mustOK("table R(a) = (1)")
	c.mustOK("table S(a) = (1)")
	g, err := srv.Core().Admission().Acquire(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := c.send("query R -[R.a = S.a] S")
	ea := c.send("explain analyze R -[R.a = S.a] S")
	if ea.OK || ea.Code != CodeAdmissionRejected || ea.Code != q.Code {
		t.Fatalf("saturated explain analyze = %+v, query = %+v; want both %s", ea, q, CodeAdmissionRejected)
	}
	g.Release()
	r := c.mustOK("explain analyze R -[R.a = S.a] S")
	if r.Rows != 1 || !strings.Contains(r.Output, "-- totals: 1 rows") || r.Plan == "" {
		t.Fatalf("after release = %+v", r)
	}
}

// Under a memory grant the join trips with spill off: explain analyze
// answers with the typed resource code and the partial tree, the
// tripping operator marked, and the grant goes back to the pool.
func TestServerExplainAnalyzeGovernorTrip(t *testing.T) {
	srv := startTestServer(t, Config{PoolBytes: 1 << 20})
	c := dialServer(t, srv.Addr())
	var rows []string
	for i := 0; i < 200; i++ {
		rows = append(rows, fmt.Sprintf("(%d)", i%5))
	}
	c.mustOK("table big(a) = " + strings.Join(rows, ", "))
	c.mustOK("table big2(b) = " + strings.Join(rows, ", "))
	c.mustOK("set memory_limit 64B")
	c.mustOK("set spill off")
	r := c.send("explain analyze big -[big.a = big2.b] big2")
	if r.OK || r.Code != CodeResource {
		t.Fatalf("governor trip = %+v, want %s", r, CodeResource)
	}
	for _, want := range []string{"<-- error:", "-- aborted:", "memory budget exceeded"} {
		if !strings.Contains(r.Output, want) {
			t.Errorf("partial tree missing %q:\n%s", want, r.Output)
		}
	}
	if st := srv.Core().Admission().Stats(); st.Active != 0 || st.UsedBytes != 0 {
		t.Fatalf("pool leaked after trip: %+v", st)
	}
}

// explain analyze is a query of the tracer: /debug/queries lists it
// with its plan and strategy.
func TestServerExplainAnalyzeInDebugQueries(t *testing.T) {
	srv := startTestServer(t, Config{MetricsAddr: "127.0.0.1:0"})
	c := dialServer(t, srv.Addr())
	c.mustOK("table R(a) = (1), (2)")
	c.mustOK("table S(a) = (2), (3)")
	c.mustOK("explain analyze R ->[R.a = S.a] S")
	var recs []struct {
		Query    string `json:"query"`
		Strategy string `json:"strategy"`
		PlanTree string `json:"plan_tree"`
		Rows     int64  `json:"rows"`
	}
	if err := getJSON("http://"+srv.MetricsAddr()+"/debug/queries", &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Query != "explain analyze R ->[R.a = S.a] S" ||
		recs[0].Strategy == "" || recs[0].PlanTree == "" || recs[0].Rows == 0 {
		t.Fatalf("/debug/queries = %+v, want the explain analyze first", recs)
	}
}

// The process-level flags parse into the Config fields both front ends
// build their core from.
func TestRegisterProcessFlags(t *testing.T) {
	var cfg Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterProcessFlags(fs, &cfg)
	if err := fs.Parse([]string{"-metrics-addr", "127.0.0.1:0", "-pprof", "-slow-query", "250ms",
		"-slow-query-log", "slow.jsonl", "-slow-query-log-max", "16MB", "-spill-dir", "/spill", "-plan-cache", "4"}); err != nil {
		t.Fatal(err)
	}
	want := Config{MetricsAddr: "127.0.0.1:0", Pprof: true, SlowQuery: 250 * time.Millisecond,
		SlowQueryLog: "slow.jsonl", SlowQueryLogMaxBytes: 16 << 20, SpillDir: "/spill", PlanCache: 4}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterProcessFlags(fs, &cfg)
	if err := fs.Parse([]string{"-slow-query-log-max", "lots"}); err == nil {
		t.Fatal("a malformed byte size must be a flag error")
	}
}
