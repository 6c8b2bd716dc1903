package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"

	"freejoin/internal/relation"
)

// checkJSON fails unless AppendJSON reproduces json.Marshal byte for
// byte, both into an empty buffer and appended after existing bytes.
func checkJSON(t *testing.T, r Response) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON(%+v)\n got %q\nwant %q", r, got, want)
	}
	if got := r.AppendJSON([]byte("x")); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("AppendJSON must append after dst's contents: %q", got)
	}
}

func TestAppendJSONMatchesMarshal(t *testing.T) {
	for _, r := range []Response{
		{},
		{OK: true},
		{OK: true, Output: "pong"},
		{Error: "boom", Code: CodeExec},
		{OK: true, Output: "R.a\n---\n1\n(1 rows)\n", Rows: 1, Tuples: 3, Cache: "hit", Plan: "Scan(R)"},
		{Code: CodeRetryAfter, Error: "shed", RetryAfterMS: 12},
		{Rows: -5, Tuples: -1 << 63, RetryAfterMS: 1<<63 - 1},
		{Output: "\b\f\n\r\t\x00\x01\x1f\x7f \"\\/"},
		{Output: "<script>&amp;</script>"},
		{Output: "\xe2\x80\xa8\xe2\x80\xa9\xe2\x80\xa7\xe2\x80\xaa", Error: "\xff\xfe\xfd", Code: "\xe2\x80", Plan: "é€😀\xc3"},
	} {
		checkJSON(t, r)
	}
	// Every single byte, alone and between ASCII letters.
	for b := 0; b < 256; b++ {
		checkJSON(t, Response{Output: string([]byte{byte(b)}), Error: "a" + string([]byte{byte(b)}) + "z"})
	}
}

// FuzzResponseJSON holds the hand-written encoder to json.Marshal over
// arbitrary responses.
func FuzzResponseJSON(f *testing.F) {
	f.Add(true, "R.a\n---\n1\n(1 rows)\n", "hit", "", "", "", int64(1), int64(3), int64(0))
	f.Add(false, "", "", "", "bad \b line", CodeParse, int64(0), int64(0), int64(0))
	f.Add(false, "\f<&>\xe2\x80\xa8", "\xff", "\xe2\x80\xa9", "\x00", "\x7f", int64(-1), int64(0), int64(7))
	f.Fuzz(func(t *testing.T, ok bool, output, cache, plan, errS, code string, rows, tuples, retry int64) {
		checkJSON(t, Response{OK: ok, Output: output, Rows: rows, Tuples: tuples, Cache: cache,
			Plan: plan, Error: errS, Code: code, RetryAfterMS: retry})
	})
}

// TestRenderEncodeAllocs: rendering and encoding a 6,000x4 result, as
// runQuery and the connection writer do with their reused buffers,
// allocates only the sort order, the column widths and Output's copy.
func TestRenderEncodeAllocs(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	rel := relation.New(relation.SchemeOf("W", "a", "b", "c", "d"))
	for i := 0; i < 6000; i++ {
		rel.MustAppend(relation.Int(rnd.Int63n(1e9)), relation.Int(rnd.Int63n(1e9)),
			relation.Null(), relation.Int(rnd.Int63n(1e8)))
	}
	var out, wbuf []byte
	step := func() {
		out = rel.AppendText(out[:0])
		resp := Response{OK: true, Output: string(out), Rows: int64(rel.Len()), Cache: "hit"}
		wbuf = append(resp.AppendJSON(wbuf[:0]), '\n')
	}
	step()
	if allocs := testing.AllocsPerRun(5, step); allocs > 10 {
		t.Errorf("render + encode of 6,000x4: %.0f allocations, want <= 10", allocs)
	}
}

// padTable is n rows of (i, a width-character string).
func padTable(name string, n, width int) *relation.Relation {
	r := relation.New(relation.SchemeOf(name, "a", "s"))
	pad := strings.Repeat("x", width)
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Int(int64(i)), relation.Str(pad))
	}
	return r
}

// drainRespBufs takes 64 buffers from the pool, more than one session
// can have put there, and returns the largest capacity among them.
func drainRespBufs() int {
	largest := 0
	for range 64 {
		largest = max(largest, cap(*respBufs.Get().(*[]byte)))
	}
	return largest
}

// TestSessionDropsHugeRenderBuffer: a session that answered one 4 MB
// result keeps no buffer, and the pool does not take the 4 MB one back.
func TestSessionDropsHugeRenderBuffer(t *testing.T) {
	core, err := NewCore(Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	core.Catalog().AddRelation("Big", padTable("Big", 2100, 2048))
	sess := NewSession(core)
	drainRespBufs()
	resp := sess.Exec(context.Background(), "query Big")
	if !resp.OK || len(resp.Output) < 4<<20 {
		t.Fatalf("query Big: ok=%v, %d bytes of output (want >= 4 MiB): %s", resp.OK, len(resp.Output), resp.Error)
	}
	if c := drainRespBufs(); c > maxKeptBuffer {
		t.Fatalf("a %d-byte render buffer went back to the pool after a 4 MiB result", c)
	}
}

// TestIdleConnectionsKeepNoBuffers: connections that each answered one
// result just under the reuse cap, then went idle, hold no render or
// encode buffer between them — the live heap does not grow by one
// result per connection.
func TestIdleConnectionsKeepNoBuffers(t *testing.T) {
	core, err := NewCore(Config{})
	if err != nil {
		t.Fatal(err)
	}
	core.Catalog().AddRelation("Mid", padTable("Mid", 3000, 200)) // ~0.6 MB rendered
	srv, err := StartWithCore(Config{Addr: "127.0.0.1:0"}, core)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle frees what the pool's victim cache held
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// readLine reads one response line into a throwaway buffer, so the
	// client side holds nothing between commands either.
	readLine := func(conn net.Conn) int {
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return len(line)
	}
	const conns = 16
	before := heap()
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		readLine(conn) // hello
		if _, err := conn.Write([]byte("query Mid\n")); err != nil {
			t.Fatal(err)
		}
		if n := readLine(conn); n < 600_000 || n > maxKeptBuffer {
			t.Fatalf("query Mid: a %d-byte response line, want a result just under %d bytes", n, maxKeptBuffer)
		}
	}
	if grew := int64(heap()) - int64(before); grew > 4<<20 {
		t.Fatalf("%d idle connections grew the live heap by %d bytes, want < 4 MiB", conns, grew)
	}
}
