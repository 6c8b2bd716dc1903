package server

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// FuzzProtocol drives the full command surface — dispatch, the
// table/index/value parsers behind it, set, prepare/execute, query, explain [analyze] —
// with arbitrary single lines, including the corrupted (0x01-laced) and
// garbage-glued shapes the chaos layer produces. The contract: Exec
// never panics (panics here would be caught by SafeExec in production,
// but the fuzzer treats any as a bug to fix), and every response
// encodes with AppendJSON to exactly json.Marshal's bytes.
func FuzzProtocol(f *testing.F) {
	for _, seed := range []string{
		"ping",
		"help",
		"table R(a, b) = (1, 10), (2, 20)",
		"index R a",
		"tables",
		"query R -[R.a = S.a] S",
		"explain R ->[R.a = S.a] S",
		"explain analyze R -[R.a = S.a] S",
		"explain analyze",
		"explain analyze R -[R.a",
		"prepare p1 R -[R.a = S.a] S",
		"execute p1",
		"set timeout 50ms",
		"set memory_limit 8KB",
		"set spill on",
		"set plan_cache off",
		"stats",
		"query \x01R -[R.a\x01= S.a] S",
		"ZZZZZZZZquery R",
		"table \x01(a) = (1)",
		"query ((((",
		"set memory_limit 99999999999999999999GB",
		"prepare",
		"execute",
		"",
		"  --comment",
		"\x00\x01\x02\x03",
	} {
		f.Add(seed)
	}
	core, err := NewCore(Config{
		MaxConcurrent: 2,
		PoolBytes:     1 << 20,
		QueryMemBytes: 1 << 16,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, line string) {
		// A fresh session per input over the shared core, like one TCP
		// connection's worth of state.
		sess := NewSession(core)
		resp := sess.Exec(context.Background(), line)
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("response for %q does not marshal: %v", line, err)
		}
		if got := resp.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("response for %q: AppendJSON\n got %q\nwant %q", line, got, want)
		}
		if !resp.OK && resp.Code == "" {
			t.Fatalf("error response for %q carries no code: %+v", line, resp)
		}
	})
}
