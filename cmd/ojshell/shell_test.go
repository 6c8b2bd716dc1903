package main

import (
	"strings"
	"testing"

	"freejoin/internal/parse"
)

func runScript(t *testing.T, script string) string {
	t.Helper()
	var out strings.Builder
	sh := NewShell(&out)
	if err := sh.Run(strings.NewReader(script), false); err != nil {
		t.Fatal(err)
	}
	return out.String()
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
plan R ->[R.a = S.a] S
quit
`)
	for _, want := range []string{
		"table R: 2 rows",
		"table S: 2 rows",
		"hash index on S.a",
		"freely reorderable",
		"(2 rows)",
		"R -> S",
		"tuples retrieved:",
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
plan sigma[R.a = 2](R ->[R.a = S.a] S)
query sigma[R.a = 2](R ->[R.a = S.a] S)
`)
	if !strings.Contains(out, "reordered: true") {
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
	for _, cmd := range []string{"plan", "explain", "explain analyze", "query"} {
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
plan (R -[R.a = S.a] S) -[S.a = T.a] T
query (R -[R.a = S.a] S) -[S.a = T.a] T
set strategy dp
set strategy bogus
quit
`)
	for _, want := range []string{
		"strategy yannakakis",
		"strategy: yannakakis",
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
plan R -[R.a = S.a] S
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
plan R -[R.a = S.a] S
quit
`)
	if !strings.Contains(out, "(1 rows)") && !strings.Contains(out, "(1 row)") {
		t.Errorf("governed plan within budget must produce the result:\n%s", out)
	}
}

// The prepared-query pipeline: prepare warms the plan cache, execute
// hits it, and the hit shares the fingerprint prepare reported.
func TestShellPrepareExecute(t *testing.T) {
	out := runScript(t, `
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
	if !strings.Contains(out, "prepared q1 (plan cache miss, fp ") {
		t.Errorf("prepare must report the cold plan:\n%s", out)
	}
	if n := strings.Count(out, "plan cache: hit"); n < 3 {
		t.Errorf("expected >=3 plan-cache hits across executes, got %d:\n%s", n, out)
	}
	if n := strings.Count(out, "(3 rows)"); n < 2 {
		t.Errorf("outerjoin result must render on every execute:\n%s", out)
	}
	if n := strings.Count(out, "error:"); n < 3 {
		t.Errorf("usage errors missing (got %d):\n%s", n, out)
	}
}

// set plan_cache toggles and resizes the session cache; plan/explain
// share it, so a repeated plan is a hit until the cache is turned off.
func TestShellSetPlanCache(t *testing.T) {
	out := runScript(t, `
table R(a) = (1), (2)
table S(a) = (2), (3)
explain R -[R.a = S.a] S
explain R -[R.a = S.a] S
set
set plan_cache off
explain R -[R.a = S.a] S
set plan_cache 4
set
set plan_cache on
set plan_cache bogus
quit
`)
	if !strings.Contains(out, "plancache: miss") || !strings.Contains(out, "plancache: hit") {
		t.Errorf("explain must trace the plan-cache outcome:\n%s", out)
	}
	if !strings.Contains(out, "plan_cache: on (cap 128, 1 cached)") {
		t.Errorf("bare set must show the cache state:\n%s", out)
	}
	if !strings.Contains(out, "plan_cache off") || !strings.Contains(out, "plan_cache on (cap 4)") {
		t.Errorf("plan_cache toggle output missing:\n%s", out)
	}
	if !strings.Contains(out, "error:") {
		t.Errorf("bogus plan_cache value must error:\n%s", out)
	}
}

// Index builds and restores change the statistics epoch, so a prepared
// plan is re-optimized instead of reusing a stale cached plan.
func TestShellPrepareInvalidation(t *testing.T) {
	out := runScript(t, `
table R(a) = (1), (2), (3)
table S(a) = (2), (3)
prepare q1 R -[R.a = S.a] S
execute q1
index S a
execute q1
quit
`)
	if !strings.Contains(out, "plan cache: hit") {
		t.Errorf("pre-index execute must hit:\n%s", out)
	}
	// After the index build the epoch moved: the second execute re-plans.
	idx := strings.Index(out, "hash index on S.a")
	if idx < 0 {
		t.Fatalf("index build missing:\n%s", out)
	}
	if !strings.Contains(out[idx:], "plan cache: miss") {
		t.Errorf("post-index execute must miss (stale epoch):\n%s", out)
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
