package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/obs"
	"freejoin/internal/optimizer"
	"freejoin/internal/parse"
	"freejoin/internal/plancache"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// Shell is the interactive session state: a catalog plus the commands
// that operate on it. It is separated from main for testability.
type Shell struct {
	cat *storage.Catalog
	out io.Writer

	// Resource limits applied to plan / explain analyze executions; zero
	// means unlimited.
	timeout  time.Duration
	memLimit int64 // bytes

	// spill enables spill-to-disk execution: blocking operators that
	// trip the memory budget switch to external algorithms (grace hash
	// join, spilled inner runs) instead of degrading or aborting. spillDir
	// overrides where run files go (default: the OS temp dir).
	spill    bool
	spillDir string

	// batchSize is the rows per execution batch: 0 runs with
	// exec.DefaultBatchSize, a positive value sets it. It feeds
	// optimizer.Optimizer.BatchSize and so is part of the plan-cache
	// fingerprint.
	batchSize int

	// strategy selects how freely-reorderable queries are planned:
	// "" / "dp" (the classic DP), "yannakakis" (the acyclic semijoin-
	// reducer fast path, DP fallback on cyclic graphs), or "auto"
	// (cost-compared). See optimizer.Optimizer.Strategy.
	strategy string

	// tracer collects per-query spans, the recent-query ring, and the
	// slow-query log; mon is the optional monitoring HTTP server
	// ("set metrics_addr"). pprof mounts /debug/pprof on the next
	// metrics server ("set pprof on", then "set metrics_addr ...").
	tracer *obs.Tracer
	mon    *obs.Server
	pprof  bool

	// plans is the session plan cache shared by plan/explain/prepare/
	// execute; nil when disabled ("set plan_cache off"). Stats-epoch
	// invalidation makes it safe across table loads, restores and index
	// builds within the session.
	plans *plancache.Cache

	// prepared holds named statements ("prepare NAME EXPR"); execute
	// re-plans them, which is where the cache pays off.
	prepared map[string]*preparedStmt
}

type preparedStmt struct {
	src string
	q   *expr.Node
}

// NewShell returns a shell writing to out.
func NewShell(out io.Writer) *Shell {
	return &Shell{
		cat:      storage.NewCatalog(),
		out:      out,
		tracer:   obs.NewTracer(),
		plans:    plancache.New(plancache.DefaultCapacity),
		prepared: make(map[string]*preparedStmt),
	}
}

// Close releases the shell's background resources: the monitoring
// server and the trace file (flushed by Disable).
func (s *Shell) Close() error {
	if s.mon != nil {
		s.mon.Close()
		s.mon = nil
	}
	return s.tracer.Disable()
}

// Run processes commands line by line until EOF or \q.
func (s *Shell) Run(in io.Reader, prompt bool) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		if prompt {
			fmt.Fprint(s.out, "oj> ")
		}
		if !sc.Scan() {
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		if line == `\q` || line == "quit" || line == "exit" {
			return nil
		}
		if err := s.Exec(line); err != nil {
			fmt.Fprintln(s.out, "error:", err)
		}
	}
}

// Exec runs one command.
func (s *Shell) Exec(line string) error {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch strings.ToLower(cmd) {
	case "help", `\h`:
		s.help()
		return nil
	case "table":
		return s.cmdTable(rest)
	case "index":
		return s.cmdIndex(rest)
	case "load":
		return s.cmdLoad(rest)
	case "save":
		return s.cmdSave(rest)
	case "dump":
		if rest == "" {
			return fmt.Errorf("usage: dump file.fjdb")
		}
		if err := storage.SaveCatalogFile(rest, s.cat); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "snapshot written to %s\n", rest)
		return nil
	case "restore":
		if rest == "" {
			return fmt.Errorf("usage: restore file.fjdb")
		}
		cat, err := storage.LoadCatalogFile(rest)
		if err != nil {
			return err
		}
		s.cat = cat
		fmt.Fprintf(s.out, "restored %d tables from %s\n", len(cat.Tables()), rest)
		return nil
	case "tables":
		for _, n := range s.cat.Tables() {
			t, _ := s.cat.Table(n)
			fmt.Fprintf(s.out, "%s%s  (%d rows)\n", n, t.Scheme(), t.Relation().Len())
		}
		return nil
	case "query", "eval":
		return s.cmdQuery(rest)
	case "graph":
		return s.cmdGraph(rest)
	case "analyze":
		return s.cmdAnalyze(rest)
	case "plan":
		return s.cmdPlan(rest)
	case "explain":
		return s.cmdExplain(rest)
	case "prepare":
		return s.cmdPrepare(rest)
	case "execute":
		return s.cmdExecute(rest)
	case "set":
		return s.cmdSet(rest)
	case "metrics":
		obs.Default.WritePrometheus(s.out)
		return nil
	case "trace":
		return s.cmdTrace(rest)
	case "trees":
		return s.cmdTrees(rest)
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func (s *Shell) help() {
	fmt.Fprint(s.out, `commands:
  table NAME(col, ...) = (v, ...), (v, ...)   define a table; null for nulls
  load NAME file.csv                          import a table from CSV
  save NAME file.csv                          export a table to CSV
  dump file.fjdb / restore file.fjdb          snapshot / restore the whole catalog
  index NAME col                              build a hash index
  tables                                      list tables
  query   EXPR                                evaluate an expression
  graph   EXPR                                show the query graph
  analyze EXPR                                free-reorderability analysis
  trees   EXPR                                list the implementing trees
  plan    EXPR                                optimize, explain and execute
  explain EXPR                                show the chosen plan and optimizer trace
  explain analyze EXPR                        run the plan with per-operator statistics
  prepare NAME EXPR                           parse and plan a named query once
  execute NAME                                run a prepared query (plan-cache hit)
  set plan_cache on|off|N                     toggle the plan cache / set its capacity
  set timeout DUR|off                         execution deadline (e.g. 500ms, 2s)
  set memory_limit N[KB|MB]|off               executor memory budget
  set spill on|off                            spill to disk on memory budget trips
  set spill_dir DIR|off                       directory for spill run files
  set strategy dp|yannakakis|auto             planner for reorderable queries
  set batch_size N|default                    rows per execution batch
  set metrics_addr ADDR|off                   HTTP /metrics, /debug/queries, /healthz
  set pprof on|off                            mount /debug/pprof on the next metrics_addr
  set slow_query DUR|off                      log queries slower than DUR
  set slow_query_log FILE [CAP]|off           slow-query JSONL file, rotated at CAP bytes
  set                                         show current limits
  metrics                                     print the metrics in Prometheus text form
  trace on FILE | trace off                   export query spans as Chrome trace JSON
  help / quit

expressions:  (R -[R.a = S.a] S) ->[S.b = T.b] T
operators:    -[p] join,  ->[p] left outerjoin,  <-[p] right outerjoin
restriction:  sigma[R.a = 1](R ->[R.a = S.a] S)
`)
}

// cmdTable parses "NAME(col, col) = (1, 'x'), (2, null)".
func (s *Shell) cmdTable(rest string) error {
	name, rel, err := parse.TableLiteral(rest)
	if err != nil {
		return err
	}
	s.cat.AddRelation(name, rel)
	fmt.Fprintf(s.out, "table %s: %d rows\n", name, rel.Len())
	return nil
}

func (s *Shell) cmdLoad(rest string) error {
	parts := strings.Fields(rest)
	if len(parts) != 2 {
		return fmt.Errorf("usage: load NAME file.csv")
	}
	t, err := s.cat.LoadCSVFile(parts[0], parts[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "table %s: %d rows from %s\n", parts[0], t.Relation().Len(), parts[1])
	return nil
}

func (s *Shell) cmdSave(rest string) error {
	parts := strings.Fields(rest)
	if len(parts) != 2 {
		return fmt.Errorf("usage: save NAME file.csv")
	}
	if err := s.cat.SaveCSVFile(parts[0], parts[1]); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "wrote %s\n", parts[1])
	return nil
}

func (s *Shell) cmdIndex(rest string) error {
	parts := strings.Fields(rest)
	if len(parts) != 2 {
		return fmt.Errorf("usage: index TABLE col")
	}
	t, err := s.cat.Table(parts[0])
	if err != nil {
		return err
	}
	if _, err := t.BuildHashIndex(parts[1]); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "hash index on %s.%s\n", parts[0], parts[1])
	return nil
}

func (s *Shell) cmdQuery(rest string) error {
	qt := s.tracer.Start(rest)
	parseDone := qt.Span("parse")
	q, err := parse.Expr(rest)
	parseDone()
	if err != nil {
		qt.Finish(err)
		return err
	}
	execDone := qt.Span("execute")
	out, err := q.Eval(s.cat)
	execDone()
	if err == nil {
		qt.Rec.Rows = int64(out.Len())
	}
	qt.Finish(err)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, out)
	return nil
}

func (s *Shell) cmdGraph(rest string) error {
	q, err := parse.Expr(rest)
	if err != nil {
		return err
	}
	g, err := expr.GraphOf(q)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, g)
	return nil
}

func (s *Shell) cmdAnalyze(rest string) error {
	q, err := parse.Expr(rest)
	if err != nil {
		return err
	}
	a, err := core.Analyze(q)
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, a)
	return nil
}

func (s *Shell) cmdTrees(rest string) error {
	q, err := parse.Expr(rest)
	if err != nil {
		return err
	}
	g, err := expr.GraphOf(q)
	if err != nil {
		return err
	}
	n, err := expr.CountITs(g, true)
	if err != nil {
		return err
	}
	if n > 200 {
		return fmt.Errorf("%d trees; refusing to list more than 200", n)
	}
	its, err := expr.EnumerateITs(g, true)
	if err != nil {
		return err
	}
	for i, it := range its {
		marker := " "
		if it.Equal(q) {
			marker = "*"
		}
		fmt.Fprintf(s.out, "%s %3d: %s\n", marker, i+1, it)
	}
	return nil
}

// cmdSet adjusts the session resource limits: "set timeout 500ms",
// "set memory_limit 64KB", "set ... off", or bare "set" to show them.
func (s *Shell) cmdSet(rest string) error {
	if rest == "" {
		addr := ""
		if s.mon != nil {
			addr = s.mon.Addr()
		}
		slow := s.tracer.Slow().Threshold()
		cacheState := "off"
		if s.plans != nil {
			cacheState = fmt.Sprintf("on (cap %d, %d cached)", s.plans.Cap(), s.plans.Len())
		}
		strategy := s.strategy
		if strategy == "" {
			strategy = "dp"
		}
		fmt.Fprintf(s.out, "timeout: %s\nmemory_limit: %s\nspill: %s\nspill_dir: %s\nstrategy: %s\nbatch_size: %s\nmetrics_addr: %s\nslow_query: %s\nplan_cache: %s\n",
			orOff(s.timeout.String(), s.timeout == 0),
			orOff(fmt.Sprintf("%d bytes", s.memLimit), s.memLimit == 0),
			orOff("on", !s.spill),
			orOff(s.spillDir, s.spillDir == ""),
			strategy,
			batchSizeString(s.batchSize),
			orOff(addr, s.mon == nil),
			orOff(slow.String(), slow == 0),
			cacheState)
		return nil
	}
	name, val, _ := strings.Cut(rest, " ")
	val = strings.TrimSpace(val)
	switch strings.ToLower(name) {
	case "timeout":
		if strings.EqualFold(val, "off") {
			s.timeout = 0
			fmt.Fprintln(s.out, "timeout off")
			return nil
		}
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return fmt.Errorf("usage: set timeout DUR|off (e.g. 500ms)")
		}
		s.timeout = d
		fmt.Fprintf(s.out, "timeout %s\n", d)
		return nil
	case "memory_limit":
		if strings.EqualFold(val, "off") {
			s.memLimit = 0
			fmt.Fprintln(s.out, "memory_limit off")
			return nil
		}
		n, err := parse.Bytes(val)
		if err != nil {
			return err
		}
		s.memLimit = n
		fmt.Fprintf(s.out, "memory_limit %d bytes\n", n)
		return nil
	case "spill":
		switch {
		case strings.EqualFold(val, "on"):
			s.spill = true
			fmt.Fprintln(s.out, "spill on")
			return nil
		case strings.EqualFold(val, "off"):
			s.spill = false
			fmt.Fprintln(s.out, "spill off")
			return nil
		default:
			return fmt.Errorf("usage: set spill on|off")
		}
	case "spill_dir":
		if strings.EqualFold(val, "off") || val == "" {
			s.spillDir = ""
			fmt.Fprintln(s.out, "spill_dir off (OS temp dir)")
			return nil
		}
		s.spillDir = val
		fmt.Fprintf(s.out, "spill_dir %s\n", val)
		return nil
	case "strategy":
		switch strings.ToLower(val) {
		case "dp":
			s.strategy = ""
			fmt.Fprintln(s.out, "strategy dp")
			return nil
		case "yannakakis", "auto":
			s.strategy = strings.ToLower(val)
			fmt.Fprintf(s.out, "strategy %s\n", s.strategy)
			return nil
		default:
			return fmt.Errorf("usage: set strategy dp|yannakakis|auto")
		}
	case "batch_size":
		if strings.EqualFold(val, "default") {
			s.batchSize = 0
		} else {
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return fmt.Errorf("usage: set batch_size N|default")
			}
			s.batchSize = n
		}
		fmt.Fprintf(s.out, "batch_size %s\n", batchSizeString(s.batchSize))
		return nil
	case "metrics_addr":
		if s.mon != nil {
			s.mon.Close()
			s.mon = nil
		}
		if strings.EqualFold(val, "off") {
			fmt.Fprintln(s.out, "metrics_addr off")
			return nil
		}
		if val == "" {
			return fmt.Errorf("usage: set metrics_addr HOST:PORT|off (e.g. 127.0.0.1:9090)")
		}
		srv, err := obs.StartServerOpts(val, obs.ServerOptions{Tracer: s.tracer, Pprof: s.pprof})
		if err != nil {
			return err
		}
		s.mon = srv
		endpoints := "/metrics, /debug/queries, /healthz"
		if s.pprof {
			endpoints += ", /debug/pprof"
		}
		fmt.Fprintf(s.out, "serving %s on %s\n", endpoints, srv.Addr())
		return nil
	case "pprof":
		switch {
		case strings.EqualFold(val, "on"):
			s.pprof = true
			fmt.Fprintln(s.out, "pprof on (applies to the next set metrics_addr)")
			return nil
		case strings.EqualFold(val, "off"):
			s.pprof = false
			fmt.Fprintln(s.out, "pprof off (applies to the next set metrics_addr)")
			return nil
		default:
			return fmt.Errorf("usage: set pprof on|off")
		}
	case "plan_cache":
		switch {
		case strings.EqualFold(val, "off"):
			s.plans = nil
			fmt.Fprintln(s.out, "plan_cache off")
			return nil
		case strings.EqualFold(val, "on"):
			if s.plans == nil {
				s.plans = plancache.New(plancache.DefaultCapacity)
			}
			fmt.Fprintf(s.out, "plan_cache on (cap %d)\n", s.plans.Cap())
			return nil
		default:
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return fmt.Errorf("usage: set plan_cache on|off|N")
			}
			s.plans = plancache.New(n)
			fmt.Fprintf(s.out, "plan_cache on (cap %d)\n", n)
			return nil
		}
	case "slow_query":
		if strings.EqualFold(val, "off") {
			s.tracer.Slow().SetThreshold(0)
			fmt.Fprintln(s.out, "slow_query off")
			return nil
		}
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return fmt.Errorf("usage: set slow_query DUR|off (e.g. 100ms)")
		}
		s.tracer.Slow().SetThreshold(d)
		s.tracer.Slow().SetText(s.out)
		fmt.Fprintf(s.out, "slow_query %s\n", d)
		return nil
	case "slow_query_log":
		if strings.EqualFold(val, "off") || val == "" {
			if err := s.tracer.Slow().SetJSONFile("", 0); err != nil {
				return err
			}
			fmt.Fprintln(s.out, "slow_query_log off")
			return nil
		}
		// Optional size cap after the path: "set slow_query_log q.jsonl 16MB".
		path, capStr, _ := strings.Cut(val, " ")
		maxBytes := int64(64 << 20)
		if capStr = strings.TrimSpace(capStr); capStr != "" {
			n, err := parse.Bytes(capStr)
			if err != nil {
				return err
			}
			maxBytes = n
		}
		if err := s.tracer.Slow().SetJSONFile(path, maxBytes); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "slow_query_log %s (rotate at %d bytes)\n", path, maxBytes)
		return nil
	default:
		return fmt.Errorf("usage: set timeout|memory_limit|spill|spill_dir|strategy|batch_size|metrics_addr|pprof|slow_query|slow_query_log|plan_cache VALUE|off")
	}
}

func orOff(s string, off bool) string {
	if off {
		return "off"
	}
	return s
}

// batchSizeString renders the batch-size setting: the default size
// when unset, else the explicit rows-per-batch count.
func batchSizeString(n int) string {
	if n == 0 {
		return fmt.Sprintf("%d (default)", exec.DefaultBatchSize)
	}
	return strconv.Itoa(n)
}

// execContext builds the execution context for the session's limits; the
// returned cancel must be called when the execution finishes. A session
// with no limits gets a nil context (the ungoverned fast path).
func (s *Shell) execContext() (*exec.ExecContext, context.CancelFunc) {
	if s.timeout == 0 && s.memLimit == 0 && !s.spill {
		return nil, func() {}
	}
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if s.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
	}
	var gov *exec.Governor
	if s.memLimit > 0 {
		gov = exec.NewGovernor(0, s.memLimit)
	}
	ec := exec.NewExecContext(ctx, gov)
	if s.spill {
		ec.EnableSpill(exec.SpillConfig{Dir: s.spillDir})
	}
	return ec, cancel
}

// newOptimizer builds an optimizer carrying the session's planner
// configuration (plan cache, spill mode).
func (s *Shell) newOptimizer() *optimizer.Optimizer {
	o := optimizer.New(s.cat)
	o.Cache = s.plans
	o.Spill = s.spill
	o.Strategy = s.strategy
	o.BatchSize = s.batchSize
	return o
}

// cmdExplain handles "explain EXPR" (plan plus optimizer trace, no
// execution) and "explain analyze EXPR" (instrumented execution with
// per-operator actual rows, tuples, peak memory, time and q-error).
func (s *Shell) cmdExplain(rest string) error {
	analyze := false
	if after, ok := strings.CutPrefix(rest, "analyze "); ok {
		analyze = true
		rest = strings.TrimSpace(after)
	} else if rest == "analyze" {
		rest = ""
	}
	if rest == "" {
		return fmt.Errorf("usage: explain [analyze] EXPR")
	}
	// Only "explain analyze" executes, so only it counts as a query in
	// the tracer; a nil trace records nothing.
	var qt *obs.QueryTrace
	if analyze {
		qt = s.tracer.Start("explain analyze " + rest)
	}
	parseDone := qt.Span("parse")
	q, err := parse.Expr(rest)
	parseDone()
	if err != nil {
		qt.Finish(err)
		return err
	}
	o := s.newOptimizer()
	t0 := time.Now()
	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		qt.Finish(err)
		return err
	}
	qt.AddSpans(optimizer.PhaseSpans(tr, t0, time.Since(t0)))
	if !analyze {
		fmt.Fprint(s.out, optimizer.Explain(p, tr))
		return nil
	}
	ec, cancel := s.execContext()
	defer cancel()
	_, _, text, err := o.ExplainAnalyzeTraced(ec, p, tr, qt)
	qt.Finish(err)
	// On an aborted run the text still renders the partial tree and the
	// tripping operator; print it before surfacing the error.
	fmt.Fprint(s.out, text)
	return err
}

func (s *Shell) cmdPlan(rest string) error {
	qt := s.tracer.Start("plan " + rest)
	parseDone := qt.Span("parse")
	q, err := parse.Expr(rest)
	parseDone()
	if err != nil {
		qt.Finish(err)
		return err
	}
	o := s.newOptimizer()
	t0 := time.Now()
	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		qt.Finish(err)
		return err
	}
	qt.AddSpans(optimizer.PhaseSpans(tr, t0, time.Since(t0)))
	fmt.Fprintf(s.out, "reordered: %v\nplan: %s\n%s", tr.Reordered(), p.Tree(), p.Explain())
	ec, cancel := s.execContext()
	defer cancel()
	var out *relation.Relation
	var c *exec.Counters
	qt.SetLabels(tr.Strategy, tr.Fingerprint)
	if s.tracer.Enabled() {
		// Span export wants per-operator spans, which only the
		// instrumented path produces (it also fills the query record).
		out, c, _, err = o.ExplainAnalyzeTraced(ec, p, tr, qt)
	} else {
		var cc exec.Counters
		qt.AttachProgress(cc.RowsProduced, cc.TuplesRetrieved, ec.Governor())
		execDone := qt.Span("execute")
		obs.WithQueryLabels(context.Background(), qt.Rec.ID, tr.Fingerprint, tr.Strategy,
			func(context.Context) { out, err = o.ExecuteCtxCounted(ec, p, &cc) })
		execDone()
		c = &cc
		qt.Rec.Strategy = tr.Strategy
		qt.Rec.FallbackReason = tr.FallbackReason
		qt.Rec.PlanTree = p.Tree()
		qt.Rec.Rows = c.RowsProduced()
		qt.Rec.Tuples = c.TuplesRetrieved()
	}
	qt.Finish(err)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "tuples retrieved: %d\n", c.TuplesRetrieved())
	fmt.Fprint(s.out, out)
	return nil
}

// cmdPrepare parses "NAME EXPR", plans the expression once (warming the
// plan cache), and stores it for execute. Re-preparing a name replaces
// the old statement.
func (s *Shell) cmdPrepare(rest string) error {
	name, src, found := strings.Cut(rest, " ")
	src = strings.TrimSpace(src)
	if !found || name == "" || src == "" {
		return fmt.Errorf("usage: prepare NAME EXPR")
	}
	q, err := parse.Expr(src)
	if err != nil {
		return err
	}
	o := s.newOptimizer()
	_, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		return err
	}
	s.prepared[name] = &preparedStmt{src: src, q: q}
	if tr.CacheOutcome != "" {
		fmt.Fprintf(s.out, "prepared %s (plan cache %s, fp %s)\n", name, tr.CacheOutcome, tr.Fingerprint)
	} else {
		fmt.Fprintf(s.out, "prepared %s\n", name)
	}
	return nil
}

// cmdExecute re-plans a prepared statement — a plan-cache hit unless the
// catalog's statistics changed underneath it — and runs it under the
// session's resource limits.
func (s *Shell) cmdExecute(rest string) error {
	name := strings.TrimSpace(rest)
	if name == "" {
		return fmt.Errorf("usage: execute NAME")
	}
	ps, ok := s.prepared[name]
	if !ok {
		return fmt.Errorf("no prepared query %q (use prepare NAME EXPR)", name)
	}
	qt := s.tracer.Start("execute " + name + ": " + ps.src)
	o := s.newOptimizer()
	t0 := time.Now()
	p, tr, err := o.PlanQueryTrace(ps.q)
	if err != nil {
		qt.Finish(err)
		return err
	}
	qt.AddSpans(optimizer.PhaseSpans(tr, t0, time.Since(t0)))
	ec, cancel := s.execContext()
	defer cancel()
	var c exec.Counters
	qt.SetLabels(tr.Strategy, tr.Fingerprint)
	qt.AttachProgress(c.RowsProduced, c.TuplesRetrieved, ec.Governor())
	execDone := qt.Span("execute")
	var out *relation.Relation
	obs.WithQueryLabels(context.Background(), qt.Rec.ID, tr.Fingerprint, tr.Strategy,
		func(context.Context) { out, err = o.ExecuteCtxCounted(ec, p, &c) })
	execDone()
	qt.Rec.Strategy = tr.Strategy
	qt.Rec.FallbackReason = tr.FallbackReason
	qt.Rec.PlanTree = p.Tree()
	qt.Rec.Rows = c.RowsProduced()
	qt.Rec.Tuples = c.TuplesRetrieved()
	qt.Finish(err)
	if err != nil {
		return err
	}
	if tr.CacheOutcome != "" {
		fmt.Fprintf(s.out, "plan cache: %s (fp %s)\n", tr.CacheOutcome, tr.Fingerprint)
	}
	fmt.Fprintf(s.out, "tuples retrieved: %d\n", c.TuplesRetrieved())
	fmt.Fprint(s.out, out)
	return nil
}

// cmdTrace toggles Chrome trace-event span export.
func (s *Shell) cmdTrace(rest string) error {
	arg, path, _ := strings.Cut(rest, " ")
	path = strings.TrimSpace(path)
	switch strings.ToLower(arg) {
	case "on":
		if path == "" {
			return fmt.Errorf("usage: trace on FILE | trace off")
		}
		s.tracer.Enable(path)
		fmt.Fprintf(s.out, "tracing to %s (load in chrome://tracing or ui.perfetto.dev)\n", path)
		return nil
	case "off":
		if err := s.tracer.Disable(); err != nil {
			return err
		}
		fmt.Fprintln(s.out, "tracing off")
		return nil
	default:
		return fmt.Errorf("usage: trace on FILE | trace off")
	}
}
