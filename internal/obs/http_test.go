package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHealthz is the CI smoke test for the endpoint wiring: /healthz
// must answer 200 with status ok as long as the handler is mounted.
func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz body = %q (err %v)", body, err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("unit_total", "unit test counter")
	c.Add(7)
	srv := httptest.NewServer(Handler(reg, NewRecent(4)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "unit_total 7") {
		t.Fatalf("metrics body missing counter:\n%s", body)
	}
}

func TestDebugQueriesEndpoint(t *testing.T) {
	ring := NewRecent(4)
	ring.Add(QueryRecord{ID: 1, Query: "R -[R.a = S.a] S", Strategy: "reordered",
		Duration: 3 * time.Millisecond, Rows: 2})
	ring.Add(QueryRecord{ID: 2, Query: "bad", Err: "parse error"})
	srv := httptest.NewServer(Handler(NewRegistry(), ring))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recs []QueryRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != 2 || recs[1].Strategy != "reordered" {
		t.Fatalf("debug/queries = %+v", recs)
	}
}

func TestStartServerResolvesAddr(t *testing.T) {
	s, err := StartServer("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// The rebind regression: a monitoring server stopped and started again
// must not leak the previous listener or its accept goroutine. Two successive binds to
// 127.0.0.1:0 with a Close in between; the first address must stop
// answering (listener really closed) while the second serves.
func TestServerRebindNoLeak(t *testing.T) {
	first, err := StartServer("127.0.0.1:0", nil, NewRecent(4))
	if err != nil {
		t.Fatal(err)
	}
	firstAddr := first.Addr()
	if _, err := http.Get("http://" + firstAddr + "/healthz"); err != nil {
		t.Fatalf("first bind not serving: %v", err)
	}
	if err := first.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	second, err := StartServer("127.0.0.1:0", nil, NewRecent(4))
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	defer second.Close()
	// The old address must be dead — a lingering listener would accept.
	if conn, err := net.DialTimeout("tcp", firstAddr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Fatal("first listener still accepting after Close")
	}
	resp, err := http.Get("http://" + second.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("second bind not serving: %v", err)
	}
	resp.Body.Close()
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent — repeated and on nil.
	if err := second.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	// Close waits on the Serve goroutine's exit channel, so both accept
	// goroutines are provably gone here; no global count needed (other
	// tests' transport goroutines would make one flaky).
}

// Close must drain an in-flight handler rather than cut it off.
func TestServerCloseDrainsHandlers(t *testing.T) {
	reg := NewRegistry()
	srv, err := StartServer("127.0.0.1:0", reg, NewRecent(4))
	if err != nil {
		t.Fatal(err)
	}
	// A slow scrape: hold the response open by requesting /metrics on a
	// raw connection and reading after Close begins.
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			done <- err
			return
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- err
	}()
	// Give the request a moment to be in flight, then close.
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight scrape was cut off: %v", err)
	}
}
