package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"freejoin/internal/parse"
	"freejoin/internal/server"
)

// newTestShell builds a shell over cfg writing to out, closed when the
// test ends.
func newTestShell(t *testing.T, cfg server.Config, out *strings.Builder) *Shell {
	t.Helper()
	sh, err := NewShell(cfg, out)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return sh
}

// run feeds script to the shell and returns everything it printed.
func run(t *testing.T, sh *Shell, out *strings.Builder, script string) string {
	t.Helper()
	if err := sh.Run(strings.NewReader(script), false); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func runScript(t *testing.T, script string) string {
	t.Helper()
	var out strings.Builder
	return run(t, newTestShell(t, server.Config{}, &out), &out, script)
}

// cacheOf runs line in the shell's session and returns its plan-cache
// outcome.
func cacheOf(t *testing.T, sh *Shell, line string) string {
	t.Helper()
	r := sh.sess.Exec(context.Background(), line)
	if !r.OK {
		t.Fatalf("%s: %s", line, r.Error)
	}
	return r.Cache
}

func TestShellEndToEnd(t *testing.T) {
	out := runScript(t, `
-- a comment
table R(a, b) = (1, 'x'), (2, null)
table S(a) = (2), (3)
tables
index S a
query R ->[R.a = S.a] S
graph R ->[R.a = S.a] S
analyze R ->[R.a = S.a] S
trees (R -[R.a = S.a] S)
eval R ->[R.a = S.a] S
explain analyze R ->[R.a = S.a] S
quit
`)
	for _, want := range []string{
		"table R: 2 rows",
		"table S: 2 rows",
		"hash index on S.a",
		"freely reorderable",
		"(2 rows)",
		"R -> S",
		"*   1: (R - S)",
		"-- totals: 2 rows",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellErrorsAreReported(t *testing.T) {
	out := runScript(t, `
bogus command
table R(a = (1)
table R(a) = 1, 2
index R a
index R
query R -[bad
query NOPE -[R.a = S.a] S
analyze R -[R.a] S
\q
`)
	if n := strings.Count(out, "error:"); n < 6 {
		t.Errorf("expected >=6 errors, got %d:\n%s", n, out)
	}
}

func TestShellCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/r.csv"
	out := runScript(t, `
table R(a, b) = (1, 'x'), (2, null)
save R `+path+`
load S `+path+`
query S
save NOPE `+path+`
load X `+dir+`/missing.csv
load X
save X
`)
	if !strings.Contains(out, "wrote "+path) || !strings.Contains(out, "table S: 2 rows") {
		t.Errorf("csv round trip broken:\n%s", out)
	}
	if !strings.Contains(out, "(2 rows)") {
		t.Errorf("loaded table not queryable:\n%s", out)
	}
	if strings.Count(out, "error:") < 4 {
		t.Errorf("csv error paths not reported:\n%s", out)
	}
}

func TestShellSigmaPlan(t *testing.T) {
	out := runScript(t, `
table R(a) = (1), (2), (3)
table S(a) = (1), (2)
index R a
explain sigma[R.a = 2](R ->[R.a = S.a] S)
query sigma[R.a = 2](R ->[R.a = S.a] S)
`)
	if !strings.Contains(out, "-- strategy: reordered") {
		t.Errorf("sigma plan should reorder via the pipeline:\n%s", out)
	}
	if !strings.Contains(out, "(1 rows)") {
		t.Errorf("sigma query result wrong:\n%s", out)
	}
}

func TestShellDumpRestore(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/cat.fjdb"
	out := runScript(t, `
table R(a) = (1), (2)
index R a
dump `+path+`
table R(a) = (9)
restore `+path+`
query R
dump
restore
restore `+dir+`/missing.fjdb
`)
	if !strings.Contains(out, "snapshot written") || !strings.Contains(out, "restored 1 tables") {
		t.Errorf("dump/restore broken:\n%s", out)
	}
	if !strings.Contains(out, "(2 rows)") {
		t.Errorf("restored table content wrong:\n%s", out)
	}
	if strings.Count(out, "error:") < 3 {
		t.Errorf("error paths missing:\n%s", out)
	}
}

// restore replaces the core's tables in place: a statement prepared
// before it is re-planned rather than served from the cache, answers
// from the restored tables, and a table defined after the dump is gone.
func TestShellRestoreReplacesCatalog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cat.fjdb")
	var b strings.Builder
	sh := newTestShell(t, server.Config{}, &b)
	run(t, sh, &b, `
table R(a) = (1), (2), (3)
table S(a) = (2), (3)
dump `+path+`
table S(a) = (3)
table T(a) = (1)
prepare q1 R -[R.a = S.a] S
`)
	if c := cacheOf(t, sh, "execute q1"); c != "hit" {
		t.Fatalf("before restore: cache = %q, want hit", c)
	}
	run(t, sh, &b, "restore "+path+"\n")
	r := sh.sess.Exec(context.Background(), "execute q1")
	if !r.OK || r.Cache == "hit" || r.Rows != 2 {
		t.Errorf("execute after restore = %+v, want a re-planned answer of 2 rows", r)
	}
	if r := sh.sess.Exec(context.Background(), "query T"); r.OK {
		t.Errorf("T was defined after the dump and must be gone: %+v", r)
	}
	if out := b.String(); !strings.Contains(out, "restored 2 tables") {
		t.Errorf("restore output:\n%s", out)
	}
}

// The shell sweeps the configured spill directory, not the OS temp dir,
// of run files a killed process left behind.
func TestShellSweepsSpillDir(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "ojspill-orphan")
	if err := os.WriteFile(stale, []byte("run"), 0o600); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sh := newTestShell(t, server.Config{SpillDir: dir}, &b)
	if sh.swept != 1 {
		t.Errorf("swept %d files, want 1", sh.swept)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale spill file survived the sweep: %v", err)
	}
}

func TestShellValueParsing(t *testing.T) {
	out := runScript(t, `
table T(a, b, c, d, e) = (1, 2.5, 'txt', null, true), (2, -1.5, 'y', -, false)
query T
`)
	if !strings.Contains(out, "(2 rows)") || !strings.Contains(out, "txt") {
		t.Errorf("value parsing broken:\n%s", out)
	}
}

func TestShellTreeListLimit(t *testing.T) {
	// A 7-chain has 132 trees (listable); a 10-chain exceeds the cap.
	var b strings.Builder
	for i := 0; i < 10; i++ {
		b.WriteString("table ")
		b.WriteByte(byte('A' + i))
		b.WriteString("(a) = (1)\n")
	}
	script := b.String()
	big := "A"
	for i := 1; i < 10; i++ {
		big = "(" + big + " -[" + string(byte('A'+i-1)) + ".a = " + string(byte('A'+i)) + ".a] " + string(byte('A'+i)) + ")"
	}
	script += "trees " + big + "\n"
	out := runScript(t, script)
	if !strings.Contains(out, "refusing to list") {
		t.Errorf("tree cap not applied:\n%s", out)
	}
}

func TestParseValueForms(t *testing.T) {
	for _, bad := range []string{"abc", "1x", "''x"} {
		if _, err := parse.Value(bad); err == nil && bad != "''x" {
			t.Errorf("parse.Value(%q) should fail", bad)
		}
	}
	v, err := parse.Value("3")
	if err != nil || v.AsInt() != 3 {
		t.Error("int parse broken")
	}
	v, err = parse.Value("2.5")
	if err != nil || v.AsFloat() != 2.5 {
		t.Error("float parse broken")
	}
}

// Regression: a query naming a table the catalog does not have must
// report a clean error from every command path — historically the graph
// layer panicked on the unknown node.
func TestShellUnknownTableIsError(t *testing.T) {
	for _, cmd := range []string{"eval", "explain", "explain analyze", "query"} {
		out := runScript(t, `
table R(a) = (1), (2)
`+cmd+` R -[R.a = Zed.a] Zed
quit
`)
		if !strings.Contains(out, "error:") {
			t.Errorf("%s with unknown table must report an error, got:\n%s", cmd, out)
		}
		if strings.Contains(out, "panic") {
			t.Errorf("%s with unknown table panicked:\n%s", cmd, out)
		}
	}
}

func TestShellSetLimits(t *testing.T) {
	out := runScript(t, `
set timeout 250ms
set memory_limit 64KB
set
set timeout off
set memory_limit off
set
set timeout bogus
set memory_limit bogus
quit
`)
	for _, want := range []string{
		"timeout 250ms",
		"memory_limit 65536 bytes",
		"timeout off",
		"memory_limit off",
		"error:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("set output missing %q:\n%s", want, out)
		}
	}
}

// "set strategy yannakakis" must force the acyclic fast path: the plan
// shows semireduce steps, the query still answers correctly, and bogus
// values get the usage error.
func TestShellSetStrategy(t *testing.T) {
	out := runScript(t, `
table R(a) = (1), (2)
table S(a) = (2), (3)
table T(a) = (2), (4)
set strategy yannakakis
set
explain (R -[R.a = S.a] S) -[S.a = T.a] T
query (R -[R.a = S.a] S) -[S.a = T.a] T
set strategy dp
set strategy bogus
quit
`)
	for _, want := range []string{
		"strategy yannakakis",
		"strategy: yannakakis",
		"-- strategy: yannakakis",
		"semireduce",
		"(1 rows)",
		"strategy dp",
		"error: usage: set strategy dp|yannakakis|auto",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("strategy output missing %q:\n%s", want, out)
		}
	}
}

// A plan over budget must surface the typed resource error instead of
// silently truncating, and explain analyze must render the abort with
// the tripping operator.
func TestShellMemoryLimitTrips(t *testing.T) {
	script := `
table R(a) = (1), (2), (3), (4), (5)
table S(a) = (1), (2), (3), (4), (5)
set memory_limit 100
query R -[R.a = S.a] S
explain analyze R -[R.a = S.a] S
quit
`
	out := runScript(t, script)
	if !strings.Contains(out, "memory budget exceeded") {
		t.Errorf("over-budget plan must report the trip:\n%s", out)
	}
	if !strings.Contains(out, "-- aborted:") {
		t.Errorf("explain analyze must render the abort trailer:\n%s", out)
	}
	if !strings.Contains(out, "<-- error:") {
		t.Errorf("explain analyze must mark the tripping operator:\n%s", out)
	}
}

// With room in the budget, governed execution matches ungoverned.
func TestShellLimitsWithinBudget(t *testing.T) {
	out := runScript(t, `
table R(a) = (1), (2)
table S(a) = (2), (3)
set timeout 10s
set memory_limit 1MB
query R -[R.a = S.a] S
quit
`)
	if !strings.Contains(out, "(1 rows)") && !strings.Contains(out, "(1 row)") {
		t.Errorf("governed plan within budget must produce the result:\n%s", out)
	}
}

// The prepared-query pipeline runs in the session: prepare warms the
// statement cache, execute hits it, and re-preparing a name replaces
// its statement.
func TestShellPrepareExecute(t *testing.T) {
	var b strings.Builder
	sh := newTestShell(t, server.Config{}, &b)
	out := run(t, sh, &b, `
table R(a) = (1), (2), (3)
table S(a) = (2), (3)
prepare q1 R ->[R.a = S.a] S
execute q1
execute q1
prepare q1 R -[R.a = S.a] S
execute q1
execute
execute nope
prepare q2
quit
`)
	if !strings.Contains(out, "prepared q1") {
		t.Errorf("prepare must answer:\n%s", out)
	}
	if n := strings.Count(out, "(3 rows)"); n != 2 {
		t.Errorf("outerjoin result must render on both executes, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, "(2 rows)") {
		t.Errorf("the re-prepared join must answer:\n%s", out)
	}
	if n := strings.Count(out, "error:"); n != 3 {
		t.Errorf("usage errors missing (got %d):\n%s", n, out)
	}
	if c := cacheOf(t, sh, "execute q1"); c != "hit" {
		t.Errorf("execute after prepare: cache = %q, want hit", c)
	}
}

// set plan_cache toggles the session's use of the shared cache; the
// cache's capacity is the process-level -plan-cache flag.
func TestShellSetPlanCache(t *testing.T) {
	var b strings.Builder
	out := run(t, newTestShell(t, server.Config{PlanCache: 4}, &b), &b, `
table R(a) = (1), (2)
table S(a) = (2), (3)
explain R -[R.a = S.a] S
explain R -[R.a = S.a] S
set
set plan_cache off
explain R -[R.a = S.a] S
set plan_cache 4
set plan_cache on
set plan_cache bogus
quit
`)
	if !strings.Contains(out, "plancache: miss") || !strings.Contains(out, "plancache: hit") {
		t.Errorf("explain must trace the plan-cache outcome:\n%s", out)
	}
	if !strings.Contains(out, "plan_cache: on (cap 4, 1 cached)") {
		t.Errorf("bare set must show the cache state:\n%s", out)
	}
	if strings.Count(out, "plancache: ") != 2 {
		t.Errorf("explain with the cache off must not consult it:\n%s", out)
	}
	if !strings.Contains(out, "plan_cache off") || !strings.Contains(out, "plan_cache on\n") {
		t.Errorf("plan_cache toggle output missing:\n%s", out)
	}
	if n := strings.Count(out, "error: usage: set plan_cache on|off"); n != 2 {
		t.Errorf("plan_cache N and bogus values must be usage errors, got %d:\n%s", n, out)
	}
}

// Index builds change the statistics epoch, so a prepared plan is
// re-optimized instead of reusing a stale cached plan.
func TestShellPrepareInvalidation(t *testing.T) {
	var b strings.Builder
	sh := newTestShell(t, server.Config{}, &b)
	run(t, sh, &b, `
table R(a) = (1), (2), (3)
table S(a) = (2), (3)
prepare q1 R -[R.a = S.a] S
`)
	if c := cacheOf(t, sh, "execute q1"); c != "hit" {
		t.Errorf("pre-index execute: cache = %q, want hit", c)
	}
	if out := run(t, sh, &b, "index S a\n"); !strings.Contains(out, "hash index on S.a") {
		t.Fatalf("index build missing:\n%s", out)
	}
	if c := cacheOf(t, sh, "execute q1"); c != "miss" {
		t.Errorf("post-index execute: cache = %q, want miss (stale epoch)", c)
	}
}

// "set batch_size" sets the rows per execution batch: the default and
// an explicit size answer identically, and bogus values get the usage
// error.
func TestShellSetBatchSize(t *testing.T) {
	out := runScript(t, `
table R(a) = (1), (2)
table S(a) = (2), (3)
set
query R ->[R.a = S.a] S
set batch_size 256
set
query R ->[R.a = S.a] S
set batch_size default
set batch_size 0
set batch_size bogus
quit
`)
	for _, want := range []string{
		"batch_size: 1024 (default)",
		"batch_size 256",
		"batch_size: 256",
		"batch_size 1024 (default)",
		"error: usage: set batch_size N|default",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("batch_size output missing %q:\n%s", want, out)
		}
	}
	// Both sizes ran the same outerjoin: two result blocks, both 2 rows.
	if got := strings.Count(out, "(2 rows)"); got != 2 {
		t.Errorf("expected both sizes to answer with 2 rows twice, got %d:\n%s", got, out)
	}
}
