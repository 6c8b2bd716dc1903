package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/obs"
	"freejoin/internal/optimizer"
	"freejoin/internal/parse"
	"freejoin/internal/relation"
)

// Response is the one-line JSON answer to every protocol command.
type Response struct {
	OK     bool   `json:"ok"`
	Output string `json:"output,omitempty"`
	Rows   int64  `json:"rows,omitempty"`
	Tuples int64  `json:"tuples,omitempty"`
	Cache  string `json:"cache,omitempty"` // plan-cache outcome (hit/miss/...)
	Plan   string `json:"plan,omitempty"`
	Error  string `json:"error,omitempty"`
	Code   string `json:"code,omitempty"` // machine-readable error class
	// RetryAfterMS hints when a shed client should try again
	// (retry_after and queue-full admission rejections).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Error codes carried in Response.Code.
const (
	CodeUsage             = "usage"
	CodeParse             = "parse"
	CodePlan              = "plan"
	CodeExec              = "exec"
	CodeResource          = "resource"
	CodeCancelled         = "cancelled"
	CodeAdmissionRejected = "admission_rejected"
	CodeUnknownCommand    = "unknown_command"
	// CodeInternal: a panic was caught by per-session isolation; the
	// query failed but the server keeps serving.
	CodeInternal = "internal_error"
	// CodeProtocol: the client broke wire framing (oversized or
	// malformed line); the connection closes after the response.
	CodeProtocol = "protocol_error"
	// CodeIdleTimeout: the session sent nothing for the idle window.
	CodeIdleTimeout = "idle_timeout"
	// CodeDraining: the server is shutting down gracefully and takes no
	// new queries.
	CodeDraining = "draining"
	// CodeRetryAfter: load-shed; the response carries retry_after_ms.
	CodeRetryAfter = "retry_after"
)

func errResp(code string, err error) Response {
	return Response{Error: err.Error(), Code: code}
}

// panicHook is a test seam: when set, it is called at named lifecycle
// points ("dispatch", "plan", "execute") with the command label, and may
// panic — the panic-isolation contract test drives every point and
// asserts the blast radius stays inside the one query.
var panicHook atomic.Pointer[func(point, label string)]

// SetPanicHook installs (or, with nil, removes) the lifecycle panic
// hook. Test-only; not for production use.
func SetPanicHook(f func(point, label string)) {
	if f == nil {
		panicHook.Store(nil)
		return
	}
	panicHook.Store(&f)
}

func firePanicPoint(point, label string) {
	if f := panicHook.Load(); f != nil {
		(*f)(point, label)
	}
}

// SafeExec is Exec behind the per-session panic barrier: a panic
// anywhere in command handling becomes a typed internal_error response
// with the stack preserved in the tracer (and the slow-query log), and
// the server keeps serving. Connection goroutines call this, never Exec
// directly.
func (s *Session) SafeExec(ctx context.Context, line string) (resp Response) {
	defer func() {
		if p := recover(); p != nil {
			obs.ServerPanics.Inc()
			s.core.tracer.RecordPanic(line, p, debug.Stack())
			resp = errResp(CodeInternal, fmt.Errorf("internal error: panic: %v", p))
		}
	}()
	return s.Exec(ctx, line)
}

// Session is one client's state over the shared core: its resource
// limits (seeded from the server defaults, adjustable with "set") and
// its prepared statements. A session is used by one connection goroutine
// at a time; all cross-session state lives in the core.
type Session struct {
	core *Core

	timeout  time.Duration
	memLimit int64 // per-query memory grant request
	spill    bool
	useCache bool   // whether this session consults the shared plan cache
	strategy string // planner strategy ("" → dp); see optimizer.Optimizer.Strategy
	// batchSize is the rows per execution batch: 0 = the default size,
	// >0 = an explicit size. Part of the plan-cache fingerprint.
	batchSize int

	// prepared names statement texts: "execute NAME" runs its text
	// through the same statement path as "query".
	prepared map[string]string
}

// maxKeptBuffer caps the render and encode buffers kept for reuse: a
// buffer that grew past it for one huge result is dropped, not pooled.
const maxKeptBuffer = 1 << 20

// respBufs holds render and encode buffers (*[]byte) between responses.
// It is process-wide, so an idle connection or session holds no buffer.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// putRespBuf pools p for reuse, or drops it once it outgrew
// maxKeptBuffer.
func putRespBuf(p *[]byte) {
	if cap(*p) <= maxKeptBuffer {
		*p = (*p)[:0]
		respBufs.Put(p)
	}
}

// NewSession builds a session with the core's default limits.
func NewSession(core *Core) *Session {
	return &Session{
		core:      core,
		timeout:   core.cfg.Timeout,
		memLimit:  core.cfg.QueryMemBytes,
		spill:     core.cfg.Spill,
		useCache:  core.plans != nil,
		strategy:  core.cfg.Strategy,
		batchSize: core.cfg.BatchSize,
		prepared:  make(map[string]string),
	}
}

const sessionHelp = `commands (one per line):
  ping                                        liveness check
  table NAME(col, ...) = (v, ...), (v, ...)   define a table; null for nulls
  index NAME col                              build a hash index
  tables                                      list tables
  query EXPR                                  optimize and execute an expression
  explain EXPR                                show the chosen plan (no execution)
  explain analyze EXPR                        execute it with per-operator statistics
  prepare NAME EXPR                           parse and plan a named query once
  execute NAME                                run a prepared query (plan-cache hit)
  set timeout DUR|off                         per-query deadline, admission wait included
  set memory_limit N[KB|MB]|off               per-query memory grant request
  set spill on|off                            spill to disk on memory budget trips
  set plan_cache on|off                       consult the shared plan cache
  set strategy dp|yannakakis|auto             planner for reorderable queries
  set batch_size N|default                    rows per execution batch
  set                                         show current limits
  stats                                       admission/pool/cache snapshot
  quit                                        close the session`

// Exec runs one protocol command. ctx is the server's base context:
// cancelling it (shutdown) aborts in-flight executions.
func (s *Session) Exec(ctx context.Context, line string) Response {
	cmd, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
	rest = strings.TrimSpace(rest)
	firePanicPoint("dispatch", line)
	switch strings.ToLower(cmd) {
	case "ping":
		return Response{OK: true, Output: "pong"}
	case "help":
		return Response{OK: true, Output: sessionHelp}
	case "table":
		return s.cmdTable(rest)
	case "index":
		return s.cmdIndex(rest)
	case "tables":
		return s.cmdTables()
	case "query":
		resp, _ := s.runQuery(ctx, "query "+rest, rest, false)
		return resp
	case "explain":
		return s.cmdExplain(ctx, rest)
	case "prepare":
		return s.cmdPrepare(rest)
	case "execute":
		src, ok := s.prepared[rest]
		if !ok || rest == "" {
			return errResp(CodeUsage, fmt.Errorf("no prepared query %q (use prepare NAME EXPR)", rest))
		}
		resp, _ := s.runQuery(ctx, "execute "+rest+": "+src, src, false)
		return resp
	case "set":
		return s.cmdSet(rest)
	case "stats":
		return s.cmdStats()
	default:
		return errResp(CodeUnknownCommand, fmt.Errorf("unknown command %q (try help)", cmd))
	}
}

func (s *Session) cmdTable(rest string) Response {
	name, rel, err := parse.TableLiteral(rest)
	if err != nil {
		return errResp(CodeUsage, err)
	}
	s.core.cat.AddRelation(name, rel)
	return Response{OK: true, Output: fmt.Sprintf("table %s: %d rows", name, rel.Len()),
		Rows: int64(rel.Len())}
}

func (s *Session) cmdIndex(rest string) Response {
	parts := strings.Fields(rest)
	if len(parts) != 2 {
		return errResp(CodeUsage, fmt.Errorf("usage: index TABLE col"))
	}
	t, err := s.core.cat.Table(parts[0])
	if err != nil {
		return errResp(CodeUsage, err)
	}
	if _, err := t.BuildHashIndex(parts[1]); err != nil {
		return errResp(CodeUsage, err)
	}
	return Response{OK: true, Output: fmt.Sprintf("hash index on %s.%s", parts[0], parts[1])}
}

func (s *Session) cmdTables() Response {
	names := s.core.cat.Tables()
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		t, err := s.core.cat.Table(n)
		if err != nil {
			continue // dropped between list and lookup
		}
		fmt.Fprintf(&b, "%s%s  (%d rows)\n", n, t.Scheme(), t.Relation().Len())
	}
	return Response{OK: true, Output: strings.TrimRight(b.String(), "\n"), Rows: int64(len(names))}
}

// cmdExplain shows the plan of "explain EXPR" without executing it;
// "explain analyze EXPR" runs the query lifecycle and answers with the
// executed plan's per-operator statistics instead of the rows.
func (s *Session) cmdExplain(ctx context.Context, rest string) Response {
	if src, ok := strings.CutPrefix(rest, "analyze "); ok {
		src = strings.TrimSpace(src)
		resp, _ := s.runQuery(ctx, "explain analyze "+src, src, true)
		return resp
	}
	if rest == "" || rest == "analyze" {
		return errResp(CodeUsage, fmt.Errorf("usage: explain [analyze] EXPR"))
	}
	q, err := parse.Expr(rest)
	if err != nil {
		return errResp(CodeParse, err)
	}
	o := s.newOptimizer()
	p, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		return errResp(CodePlan, err)
	}
	return Response{OK: true, Output: optimizer.Explain(p, tr), Plan: p.Tree(),
		Cache: tr.CacheOutcome}
}

func (s *Session) cmdPrepare(rest string) Response {
	name, src, found := strings.Cut(rest, " ")
	src = strings.TrimSpace(src)
	if !found || name == "" || src == "" {
		return errResp(CodeUsage, fmt.Errorf("usage: prepare NAME EXPR"))
	}
	q, err := parse.Expr(src)
	if err != nil {
		return errResp(CodeParse, err)
	}
	// Planning validates the query, and its plan warms the statement
	// entry that "execute NAME" looks up.
	o := s.newOptimizer()
	_, tr, err := o.PlanStatement(o.LookupStatement(src), q)
	if err != nil {
		return errResp(CodePlan, err)
	}
	s.prepared[name] = src
	return Response{OK: true, Output: "prepared " + name, Cache: tr.CacheOutcome}
}

func (s *Session) cmdSet(rest string) Response {
	if rest == "" {
		cache := "off"
		if s.useCache && s.core.plans != nil {
			cache = fmt.Sprintf("on (cap %d, %d cached)", s.core.plans.Cap(), s.core.plans.Len())
		}
		return Response{OK: true, Output: fmt.Sprintf(
			"timeout: %s\nmemory_limit: %s\nspill: %s\nplan_cache: %s\nstrategy: %s\nbatch_size: %s",
			orOff(s.timeout.String(), s.timeout == 0),
			orOff(fmt.Sprintf("%d bytes", s.memLimit), s.memLimit == 0),
			orOff("on", !s.spill),
			cache, cmp.Or(s.strategy, "dp"), batchSizeString(s.batchSize))}
	}
	name, val, _ := strings.Cut(rest, " ")
	val = strings.TrimSpace(val)
	switch strings.ToLower(name) {
	case "timeout":
		if strings.EqualFold(val, "off") {
			s.timeout = 0
			return Response{OK: true, Output: "timeout off"}
		}
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return errResp(CodeUsage, fmt.Errorf("usage: set timeout DUR|off (e.g. 500ms)"))
		}
		s.timeout = d
		return Response{OK: true, Output: "timeout " + d.String()}
	case "memory_limit":
		if strings.EqualFold(val, "off") {
			s.memLimit = 0
			return Response{OK: true, Output: "memory_limit off"}
		}
		n, err := parse.Bytes(val)
		if err != nil {
			return errResp(CodeUsage, err)
		}
		s.memLimit = n
		return Response{OK: true, Output: fmt.Sprintf("memory_limit %d bytes", n)}
	case "spill":
		switch {
		case strings.EqualFold(val, "on"):
			s.spill = true
			return Response{OK: true, Output: "spill on"}
		case strings.EqualFold(val, "off"):
			s.spill = false
			return Response{OK: true, Output: "spill off"}
		default:
			return errResp(CodeUsage, fmt.Errorf("usage: set spill on|off"))
		}
	case "plan_cache":
		switch {
		case strings.EqualFold(val, "on"):
			if s.core.plans == nil {
				return errResp(CodeUsage, fmt.Errorf("plan cache disabled server-wide"))
			}
			s.useCache = true
			return Response{OK: true, Output: "plan_cache on"}
		case strings.EqualFold(val, "off"):
			s.useCache = false
			return Response{OK: true, Output: "plan_cache off"}
		default:
			return errResp(CodeUsage, fmt.Errorf("usage: set plan_cache on|off"))
		}
	case "strategy":
		strategy, err := ParseStrategy(val)
		if err != nil {
			return errResp(CodeUsage, fmt.Errorf("usage: set strategy dp|yannakakis|auto"))
		}
		s.strategy = strategy
		return Response{OK: true, Output: "strategy " + cmp.Or(strategy, "dp")}
	case "batch_size":
		n, err := ParseBatchSize(val)
		if err != nil {
			return errResp(CodeUsage, fmt.Errorf("usage: set batch_size N|default"))
		}
		s.batchSize = n
		return Response{OK: true, Output: "batch_size " + batchSizeString(n)}
	default:
		return errResp(CodeUsage, fmt.Errorf("usage: set timeout|memory_limit|spill|plan_cache|strategy|batch_size VALUE|off"))
	}
}

func (s *Session) cmdStats() Response {
	st := s.core.adm.Stats()
	cfg := s.core.adm.Config()
	var b strings.Builder
	fmt.Fprintf(&b, "active: %d/%d\nqueued: %d/%d\npool: %d/%d bytes\nspill_pool: %d/%d bytes\ntables: %d\n",
		st.Active, cfg.MaxConcurrent, st.Queued, cfg.QueueDepth,
		st.UsedBytes, cfg.PoolBytes, st.UsedSpillBytes, cfg.SpillPoolBytes,
		len(s.core.cat.Tables()))
	if s.core.plans != nil {
		fmt.Fprintf(&b, "plan_cache: %d/%d", s.core.plans.Len(), s.core.plans.Cap())
	} else {
		fmt.Fprint(&b, "plan_cache: off")
	}
	return Response{OK: true, Output: b.String()}
}

func orOff(s string, off bool) string {
	if off {
		return "off"
	}
	return s
}

// newOptimizer builds an optimizer carrying the session's planner
// configuration over the shared catalog and plan cache.
func (s *Session) newOptimizer() *optimizer.Optimizer {
	o := optimizer.New(s.core.cat)
	if s.useCache {
		o.Cache = s.core.plans
	}
	o.Spill = s.spill
	o.Strategy = s.strategy
	o.BatchSize = s.batchSize
	return o
}

// ParseStrategy parses a planner strategy, case-insensitively: dp
// (returned as "", the default), yannakakis or auto. "set strategy" and
// ojserver's -strategy flag both parse with it.
func ParseStrategy(v string) (string, error) {
	switch v := strings.ToLower(v); v {
	case "dp":
		return "", nil
	case "yannakakis", "auto":
		return v, nil
	}
	return "", fmt.Errorf("unknown strategy %q (want dp, yannakakis or auto)", v)
}

// ParseBatchSize parses a rows-per-batch setting: a positive count, or
// "default" (returned as 0). "set batch_size" and ojserver's
// -batch-size flag both parse with it.
func ParseBatchSize(v string) (int, error) {
	if strings.EqualFold(v, "default") {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad batch size %q (want N or default)", v)
	}
	return n, nil
}

// batchSizeString renders the batch-size setting: the default size
// when unset, else the explicit rows-per-batch count.
func batchSizeString(n int) string {
	if n == 0 {
		return fmt.Sprintf("%d (default)", exec.DefaultBatchSize)
	}
	return strconv.Itoa(n)
}

// runQuery is the query lifecycle of the statement text src: look the
// text up in the plan cache (parsing it only on a miss, so a malformed
// query is answered without waiting for admission), trace, admit
// (queueing under the session deadline), plan — or take the cached
// plan —, execute under the granted governor, release. With analyze the
// execute step runs instrumented and the answer is the executed plan's
// statistics ("explain analyze"), the partial tree on an abort. The
// returned relation backs in-process correctness checks; protocol
// clients read the rendered Output.
func (s *Session) runQuery(ctx context.Context, label, src string, analyze bool) (resp Response, outRel *relation.Relation) {
	o := s.newOptimizer()
	stmt := o.LookupStatement(src)
	var q *expr.Node
	var parsed obs.Span // a miss's parse, timed before the trace starts
	if !stmt.Hit() {
		start := time.Now()
		var err error
		if q, err = parse.Expr(src); err != nil {
			return errResp(CodeParse, err), nil
		}
		parsed = obs.Span{Name: "parse", Cat: "phase", Start: start, Dur: time.Since(start)}
	}
	qt := s.core.tracer.Start(label)
	if q != nil {
		qt.AddSpan(parsed)
	}
	// Panic isolation, registered before the grant's deferred Release so
	// it runs last (LIFO): by the time the panic is converted to a typed
	// response, the admission grant is already back in the pools.
	defer func() {
		if p := recover(); p != nil {
			obs.ServerPanics.Inc()
			qt.FinishPanic(p, debug.Stack())
			resp, outRel = errResp(CodeInternal, fmt.Errorf("internal error: panic: %v", p)), nil
		}
	}()
	if s.core.Draining() {
		err := errors.New("server draining: not accepting new queries")
		qt.Reject(err)
		return errResp(CodeDraining, err), nil
	}
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}

	// Admission: the deadline covers the queue wait, so a saturated
	// server times a query out rather than holding its client forever.
	var spillNeed int64
	if s.spill {
		spillNeed = s.core.cfg.QuerySpillBytes
	}
	waitDone := qt.Span("admission")
	admitStart := time.Now()
	grant, err := s.core.adm.Acquire(ctx, s.memLimit, spillNeed)
	qt.SetAdmissionWait(time.Since(admitStart))
	waitDone()
	if err != nil {
		if IsAdmissionRejected(err) {
			qt.Reject(err)
			return rejectionResp(err), nil
		}
		qt.Finish(err)
		return errResp(CodeCancelled, err), nil
	}
	defer grant.Release()

	firePanicPoint("plan", label)
	t0 := time.Now()
	p, tr, err := o.PlanStatement(stmt, q)
	if err != nil {
		qt.Finish(err)
		return errResp(CodePlan, err), nil
	}
	qt.AddSpans(optimizer.PhaseSpans(tr, t0, time.Since(t0)))
	firePanicPoint("execute", label)

	var gov *exec.Governor
	if grant.Bytes() > 0 || grant.SpillBytes() > 0 {
		gov = exec.NewGovernor(0, grant.Bytes())
		if grant.SpillBytes() > 0 {
			gov.SetSpillLimit(grant.SpillBytes())
		}
	}
	ec := exec.NewExecContext(ctx, gov)
	if s.spill {
		ec.EnableSpill(exec.SpillConfig{Dir: s.core.cfg.SpillDir})
	}
	// Live progress and profile attribution: the caller-owned counters
	// stream rows/tuples-so-far to /debug/queries?live=1 while the query
	// runs, and the pprof goroutine labels on the goroutine that runs
	// every operator of the query let a CPU profile slice by
	// query_id/fingerprint/strategy.
	qt.SetLabels(tr.Strategy, tr.Fingerprint)
	if analyze {
		return explainAnalyze(ctx, o, ec, p, tr, qt)
	}
	var c exec.Counters
	qt.AttachProgress(c.RowsProduced, c.TuplesRetrieved, gov)
	execDone := qt.Span("execute")
	var out *relation.Relation
	obs.WithQueryLabels(ctx, qt.Rec.ID, tr.Fingerprint, tr.Strategy, func(context.Context) {
		out, err = o.ExecuteCtxCounted(ec, p, &c)
	})
	execDone()
	qt.Rec.Strategy = tr.Strategy
	qt.Rec.FallbackReason = tr.FallbackReason
	qt.Rec.Fingerprint = tr.Fingerprint
	qt.Rec.PlanTree = p.Tree()
	qt.Rec.Rows = c.RowsProduced()
	qt.Rec.Tuples = c.TuplesRetrieved()
	qt.Finish(err)
	if err != nil {
		return errResp(classifyExecErr(err), err), nil
	}
	// Render into a pooled buffer; Output is the one copy that outlives it.
	buf := respBufs.Get().(*[]byte)
	*buf = out.AppendText(*buf)
	resp = Response{OK: true, Output: string(*buf), Rows: int64(out.Len()),
		Tuples: c.TuplesRetrieved(), Cache: tr.CacheOutcome}
	putRespBuf(buf)
	return resp, out
}

// explainAnalyze is runQuery's execute step for "explain analyze": the
// instrumented run fills the trace's spans and record, and the answer is
// its rendered statistics — on an abort too, next to the typed code.
func explainAnalyze(ctx context.Context, o *optimizer.Optimizer, ec *exec.ExecContext,
	p *optimizer.Plan, tr *optimizer.Trace, qt *obs.QueryTrace) (Response, *relation.Relation) {
	var out *relation.Relation
	var c *exec.Counters
	var text string
	var err error
	obs.WithQueryLabels(ctx, qt.Rec.ID, tr.Fingerprint, tr.Strategy, func(context.Context) {
		out, c, text, err = o.ExplainAnalyzeTraced(ec, p, tr, qt)
	})
	qt.Rec.Fingerprint = tr.Fingerprint
	qt.Finish(err)
	if err != nil {
		resp := errResp(classifyExecErr(err), err)
		resp.Output = text
		return resp, nil
	}
	return Response{OK: true, Output: text, Rows: int64(out.Len()), Tuples: c.TuplesRetrieved(),
		Cache: tr.CacheOutcome, Plan: p.Tree()}, out
}

// rejectionResp maps an admission rejection onto the wire: load sheds
// are typed retry_after with the hint in retry_after_ms (the one code a
// well-behaved client backs off and retries on); queue-full and
// oversized stay admission_rejected, with the hint attached when the
// server has one.
func rejectionResp(err error) Response {
	resp := errResp(CodeAdmissionRejected, err)
	var ar *AdmissionRejectedError
	if errors.As(err, &ar) {
		if ar.Reason == RejectOverload {
			resp.Code = CodeRetryAfter
		}
		if ar.RetryAfter > 0 {
			resp.RetryAfterMS = max(1, ar.RetryAfter.Milliseconds())
		}
	}
	return resp
}

// classifyExecErr maps an execution error to a protocol error code.
func classifyExecErr(err error) string {
	var re *exec.ResourceError
	if errors.As(err, &re) {
		switch re.Kind {
		case exec.Cancelled, exec.DeadlineExceeded:
			return CodeCancelled
		default:
			return CodeResource
		}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return CodeCancelled
	}
	return CodeExec
}
