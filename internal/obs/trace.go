package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed section of a query: a pipeline phase (parse,
// analyze, optimize, build, execute) or an operator synthesized from the
// executed plan's stats tree. Depth is the span's nesting level within
// its category — pre-order operator spans carry their tree depth so the
// exported trace (and tests) can rebuild the hierarchy.
type Span struct {
	Name  string        `json:"name"`
	Cat   string        `json:"cat"` // "phase" or "operator"
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur"`
	Depth int           `json:"depth"`
	Err   string        `json:"err,omitempty"`
}

// QueryRecord is the condensed outcome of one traced query: what the
// ring buffer holds, what /debug/queries serves, and what the slow-query
// log records — including the implementing tree the optimizer chose and
// why, so a slow query can be traced back to its plan.
type QueryRecord struct {
	ID       uint64        `json:"id"`
	Query    string        `json:"query"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Strategy, FallbackReason and Fingerprint mirror the optimizer
	// trace; PlanTree is the chosen implementing tree in the expression
	// syntax.
	Strategy       string   `json:"strategy,omitempty"`
	FallbackReason string   `json:"fallback_reason,omitempty"`
	Fingerprint    string   `json:"fingerprint,omitempty"`
	PlanTree       string   `json:"plan_tree,omitempty"`
	Rows           int64    `json:"rows"`
	Tuples         int64    `json:"tuples"`
	QError         float64  `json:"q_error,omitempty"`
	GovernorEvents []string `json:"governor_events,omitempty"`
	Err            string   `json:"error,omitempty"`
	Slow           bool     `json:"slow,omitempty"`
	// Stack is the goroutine stack captured when the query died in a
	// recovered panic; panic records always reach the slow-query log,
	// threshold or not.
	Stack string `json:"stack,omitempty"`
}

// Tracer assigns trace IDs, collects spans per query, maintains the
// recent-query ring buffer and the slow-query log, and — when enabled —
// exports finished queries as Chrome trace-event JSON that loads in
// chrome://tracing and Perfetto. The metrics side-effects (queries
// started/completed/failed, latency histogram) fire on Start/Finish
// whether or not span export is enabled.
type Tracer struct {
	nextID  atomic.Uint64
	enabled atomic.Bool
	epoch   time.Time

	mu     sync.Mutex
	path   string
	events []chromeEvent

	// active indexes in-flight traces by ID — the /debug/queries?live=1
	// payload. Entries are added by Start and removed by Finish/Reject;
	// the fields Active reads off a live trace are all immutable or
	// atomic, so a scrape never races the query's own goroutine.
	activeMu sync.Mutex
	active   map[uint64]*QueryTrace

	ring *Recent
	slow *SlowLog
}

// NewTracer returns a tracer with a 64-entry ring buffer and a disabled
// slow-query log; span export starts disabled.
func NewTracer() *Tracer {
	return &Tracer{
		epoch:  time.Now(),
		active: make(map[uint64]*QueryTrace),
		ring:   NewRecent(64),
		slow:   &SlowLog{},
	}
}

// DefaultTracer is the process-wide tracer the commands share.
var DefaultTracer = NewTracer()

// Ring returns the tracer's recent-query buffer.
func (t *Tracer) Ring() *Recent { return t.ring }

// Slow returns the tracer's slow-query log.
func (t *Tracer) Slow() *SlowLog { return t.slow }

// Enable turns on span export; finished queries append to the in-memory
// event list and, when path is non-empty, the full Chrome trace JSON is
// rewritten to path after every query so the file is always loadable.
func (t *Tracer) Enable(path string) {
	t.mu.Lock()
	t.path = path
	t.mu.Unlock()
	t.enabled.Store(true)
}

// Disable turns span export off after flushing any configured file. The
// collected events are kept so a later Enable appends to the same
// timeline.
func (t *Tracer) Disable() error {
	t.enabled.Store(false)
	return t.Flush()
}

// Flush writes the Chrome trace JSON to the configured path (a no-op
// without one).
func (t *Tracer) Flush() error {
	t.mu.Lock()
	path := t.path
	t.mu.Unlock()
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteChrome writes the collected events as a Chrome trace-event JSON
// document ({"traceEvents": [...]}).
func (t *Tracer) WriteChrome(w io.Writer) error {
	t.mu.Lock()
	evs := append([]chromeEvent(nil), t.events...)
	t.mu.Unlock()
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: evs}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Start begins a traced query. It always returns a usable trace (the
// lifecycle metrics fire regardless); span collection is skipped when
// export is disabled, keeping the per-query overhead to a few atomic
// adds.
func (t *Tracer) Start(query string) *QueryTrace {
	QueriesStarted.Inc()
	QueriesActive.Inc()
	qt := &QueryTrace{
		t:   t,
		Rec: QueryRecord{ID: t.nextID.Add(1), Query: query, Start: time.Now()},
	}
	t.activeMu.Lock()
	t.active[qt.Rec.ID] = qt
	t.activeMu.Unlock()
	return qt
}

// QueryTrace collects the spans and outcome of one query between Start
// and Finish. A nil *QueryTrace is valid everywhere and records nothing,
// so library paths can thread one through unconditionally.
//
// The atomic fields at the bottom are the live-progress surface: the
// query's own goroutine publishes phase, labels, progress callbacks and
// admission wait as it goes, and Tracer.Active reads them from scrape
// goroutines without touching the non-atomic Rec/spans state.
type QueryTrace struct {
	t     *Tracer
	Rec   QueryRecord
	spans []Span
	done  bool

	phase         atomic.Pointer[string]
	labels        atomic.Pointer[queryLabels]
	prog          atomic.Pointer[progress]
	admissionWait atomic.Int64 // nanoseconds
}

// queryLabels is the atomic snapshot of a live query's plan identity.
type queryLabels struct{ strategy, fingerprint string }

// progress is the atomic snapshot of a live query's progress sources:
// row/tuple counter reads and the governor's byte usage.
type progress struct {
	rows, tuples func() int64
	gov          GovernorUsage
}

// GovernorUsage is the subset of resource.Governor the live-progress
// snapshot reads. Declared here (obs is a leaf package) so exec/resource
// can hand their governor in without an import cycle; implementations
// must be nil-receiver-safe, as resource.Governor's accessors are.
type GovernorUsage interface {
	UsedBytes() int64
	UsedSpillBytes() int64
}

// Span opens a phase span and returns its closer:
//
//	done := qt.Span("optimize")
//	... work ...
//	done()
//
// Opening a span also publishes its name as the query's current phase
// for the live-progress view.
func (qt *QueryTrace) Span(name string) func() {
	if qt == nil {
		return func() {}
	}
	qt.phase.Store(&name)
	start := time.Now()
	return func() {
		qt.AddSpan(Span{Name: name, Cat: "phase", Start: start, Dur: time.Since(start)})
	}
}

// SetLabels publishes the optimizer's chosen strategy and the plan
// fingerprint for the live-progress view (the same values the pprof
// goroutine labels carry). Nil-safe.
func (qt *QueryTrace) SetLabels(strategy, fingerprint string) {
	if qt == nil {
		return
	}
	qt.labels.Store(&queryLabels{strategy: strategy, fingerprint: fingerprint})
}

// AttachProgress publishes live progress sources: rows/tuples callbacks
// (typically exec.Counters loads — atomic, monotonic) and the query's
// governor for byte usage. Any of the three may be nil. Nil-safe.
func (qt *QueryTrace) AttachProgress(rows, tuples func() int64, gov GovernorUsage) {
	if qt == nil {
		return
	}
	qt.prog.Store(&progress{rows: rows, tuples: tuples, gov: gov})
}

// SetAdmissionWait publishes how long the query waited for admission.
// Nil-safe.
func (qt *QueryTrace) SetAdmissionWait(d time.Duration) {
	if qt == nil {
		return
	}
	qt.admissionWait.Store(int64(d))
}

// AddSpan appends a pre-timed span (phases with synthesized bounds,
// operator spans from a stats tree).
func (qt *QueryTrace) AddSpan(sp Span) {
	if qt == nil {
		return
	}
	qt.spans = append(qt.spans, sp)
}

// AddSpans appends several spans.
func (qt *QueryTrace) AddSpans(sps []Span) {
	if qt == nil {
		return
	}
	qt.spans = append(qt.spans, sps...)
}

// Spans returns the spans collected so far.
func (qt *QueryTrace) Spans() []Span {
	if qt == nil {
		return nil
	}
	return qt.spans
}

// Finish seals the trace: it stamps the duration and error, fires the
// lifecycle metrics, pushes the record into the ring buffer, feeds the
// slow-query log, and — when export is enabled — converts the spans to
// Chrome trace events and flushes the trace file. Finish is idempotent;
// calling it on a nil trace is a no-op.
func (qt *QueryTrace) Finish(err error) {
	if qt == nil || qt.done {
		return
	}
	qt.done = true
	qt.Rec.Duration = time.Since(qt.Rec.Start)
	if err != nil {
		qt.Rec.Err = err.Error()
		QueriesFailed.Inc()
	} else {
		QueriesCompleted.Inc()
	}
	QueriesActive.Dec()
	// The exemplar ties this latency bucket back to the query ID in the
	// ring, so a scrape with ?exemplars=1 links buckets to real queries.
	QueryDuration.ObserveExemplar(qt.Rec.Duration.Seconds(), qt.Rec.ID)

	t := qt.t
	if t == nil {
		return
	}
	t.activeMu.Lock()
	delete(t.active, qt.Rec.ID)
	t.activeMu.Unlock()
	qt.Rec.Slow = t.slow.Observe(&qt.Rec)
	t.ring.Add(qt.Rec)
	if t.enabled.Load() {
		t.appendChrome(qt)
		// Flush errors are swallowed: tracing must never fail a query. The
		// next Disable surfaces them.
		_ = t.Flush()
	}
}

// FinishPanic seals the trace for a query that died in a recovered
// panic: the stack lands in the record (forcing it into the slow-query
// log regardless of threshold) and the query counts as failed, so the
// lifecycle invariant started = completed + failed + rejected includes
// panics. Idempotent and nil-safe, like Finish.
func (qt *QueryTrace) FinishPanic(p any, stack []byte) {
	if qt == nil || qt.done {
		return
	}
	qt.Rec.Stack = string(stack)
	qt.Finish(fmt.Errorf("panic: %v", p))
}

// RecordPanic logs a panic recovered outside any traced query (e.g. in
// command dispatch before a query starts): the record reaches the ring
// buffer and the slow-query log with its stack, without touching the
// query lifecycle counters.
func (t *Tracer) RecordPanic(query string, p any, stack []byte) {
	rec := QueryRecord{
		ID:    t.nextID.Add(1),
		Query: query,
		Start: time.Now(),
		Err:   fmt.Sprintf("panic: %v", p),
		Stack: string(stack),
	}
	t.slow.Observe(&rec)
	t.ring.Add(rec)
}

// Reject seals the trace for a query turned away by admission control
// before execution started. It counts as rejected — not failed — so the
// server invariant `started = completed + failed + rejected` holds over
// the lifecycle counters. The record still lands in the ring buffer
// (with the rejection text as its error) so /debug/queries shows what
// was turned away. Idempotent and nil-safe, like Finish.
func (qt *QueryTrace) Reject(err error) {
	if qt == nil || qt.done {
		return
	}
	qt.done = true
	qt.Rec.Duration = time.Since(qt.Rec.Start)
	if err != nil {
		qt.Rec.Err = err.Error()
	}
	QueriesRejected.Inc()
	QueriesActive.Dec()
	if qt.t != nil {
		qt.t.activeMu.Lock()
		delete(qt.t.active, qt.Rec.ID)
		qt.t.activeMu.Unlock()
		qt.t.ring.Add(qt.Rec)
	}
}

// LiveQuery is one in-flight query as /debug/queries?live=1 reports it:
// identity, current phase, elapsed time, progress so far, governor byte
// usage, and how long admission made it wait.
type LiveQuery struct {
	ID                uint64        `json:"id"`
	Query             string        `json:"query"`
	Phase             string        `json:"phase"`
	Elapsed           time.Duration `json:"elapsed_ns"`
	Strategy          string        `json:"strategy,omitempty"`
	Fingerprint       string        `json:"fingerprint,omitempty"`
	Rows              int64         `json:"rows"`
	Tuples            int64         `json:"tuples"`
	GovernorBytes     int64         `json:"governor_bytes"`
	GovernorSpillByte int64         `json:"governor_spill_bytes"`
	AdmissionWait     time.Duration `json:"admission_wait_ns"`
}

// Active snapshots the in-flight queries, ordered by ID (oldest first).
// It reads only immutable (ID, Query, Start) or atomic fields off each
// live trace, so it is safe against the queries' own goroutines.
func (t *Tracer) Active() []LiveQuery {
	t.activeMu.Lock()
	qts := make([]*QueryTrace, 0, len(t.active))
	for _, qt := range t.active {
		qts = append(qts, qt)
	}
	t.activeMu.Unlock()
	sort.Slice(qts, func(i, j int) bool { return qts[i].Rec.ID < qts[j].Rec.ID })

	out := make([]LiveQuery, 0, len(qts))
	for _, qt := range qts {
		lq := LiveQuery{
			ID:            qt.Rec.ID,
			Query:         qt.Rec.Query,
			Elapsed:       time.Since(qt.Rec.Start),
			AdmissionWait: time.Duration(qt.admissionWait.Load()),
		}
		if p := qt.phase.Load(); p != nil {
			lq.Phase = *p
		}
		if l := qt.labels.Load(); l != nil {
			lq.Strategy, lq.Fingerprint = l.strategy, l.fingerprint
		}
		if pr := qt.prog.Load(); pr != nil {
			if pr.rows != nil {
				lq.Rows = pr.rows()
			}
			if pr.tuples != nil {
				lq.Tuples = pr.tuples()
			}
			if pr.gov != nil {
				lq.GovernorBytes = pr.gov.UsedBytes()
				lq.GovernorSpillByte = pr.gov.UsedSpillBytes()
			}
		}
		out = append(out, lq)
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event format ("X" =
// complete event with explicit duration, "M" = metadata). Timestamps
// and durations are microseconds; tid groups one query's spans onto one
// timeline row.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// appendChrome converts a finished trace's spans to Chrome events on the
// query's own tid, preceded by a thread_name metadata event carrying the
// query text.
func (t *Tracer) appendChrome(qt *QueryTrace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tid := qt.Rec.ID
	t.events = append(t.events, chromeEvent{
		Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
		Args: map[string]any{"name": fmt.Sprintf("q%d: %s", tid, clip(qt.Rec.Query, 120))},
	})
	for _, sp := range qt.spans {
		ev := chromeEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			Ts:  float64(sp.Start.Sub(t.epoch)) / float64(time.Microsecond),
			Dur: float64(sp.Dur) / float64(time.Microsecond),
			Pid: 1, Tid: tid,
		}
		if sp.Err != "" {
			ev.Args = map[string]any{"error": sp.Err}
		}
		t.events = append(t.events, ev)
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// Recent is a bounded ring buffer of finished query records, newest
// first on read — the /debug/queries payload.
type Recent struct {
	mu   sync.Mutex
	buf  []QueryRecord
	next int
	full bool
}

// NewRecent returns a ring holding the last n records.
func NewRecent(n int) *Recent {
	if n < 1 {
		n = 1
	}
	return &Recent{buf: make([]QueryRecord, n)}
}

// Add records one finished query, evicting the oldest when full.
func (r *Recent) Add(rec QueryRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// Snapshot returns the held records, newest first.
func (r *Recent) Snapshot() []QueryRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]QueryRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Len returns the number of held records.
func (r *Recent) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// SlowLog records queries whose duration exceeds a threshold, as
// human-readable text and/or JSON lines. A zero threshold disables it.
// The JSON side can log straight to a size-bounded file (SetJSONFile)
// so a long soak cannot fill the disk.
type SlowLog struct {
	threshold atomic.Int64 // nanoseconds; 0 = off

	mu    sync.Mutex
	textW io.Writer
	jsonW io.Writer

	// File-backed JSON log with rotation: when jsonFile is set and an
	// entry would push jsonSize past jsonMaxBytes, the file is renamed to
	// <path>.1 (replacing any previous .1) and a fresh file is opened —
	// at most 2×maxBytes on disk, and recent entries always survive.
	jsonFile     *os.File
	jsonPath     string
	jsonMaxBytes int64
	jsonSize     int64
}

// SetThreshold sets the slow-query duration (0 disables).
func (s *SlowLog) SetThreshold(d time.Duration) { s.threshold.Store(int64(d)) }

// SetText directs the text log to w (nil to stop).
func (s *SlowLog) SetText(w io.Writer) {
	s.mu.Lock()
	s.textW = w
	s.mu.Unlock()
}

// SetJSON directs the JSON-lines log to w (nil to stop). It closes any
// file previously attached with SetJSONFile.
func (s *SlowLog) SetJSON(w io.Writer) {
	s.mu.Lock()
	s.closeFileLocked()
	s.jsonW = w
	s.mu.Unlock()
}

// SetJSONFile directs the JSON-lines log to the file at path, appending
// if it exists, rotating to <path>.1 whenever the file would exceed
// maxBytes (maxBytes <= 0 means no bound). An empty path closes the
// current file and stops JSON logging.
func (s *SlowLog) SetJSONFile(path string, maxBytes int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeFileLocked()
	if path == "" {
		s.jsonW = nil
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("obs: slow-query log: %w", err)
	}
	size := int64(0)
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	s.jsonFile, s.jsonPath, s.jsonMaxBytes, s.jsonSize = f, path, maxBytes, size
	s.jsonW = f
	return nil
}

// CloseJSONFile closes a file attached with SetJSONFile and stops JSON
// logging to it; a no-op when none is attached.
func (s *SlowLog) CloseJSONFile() {
	s.mu.Lock()
	s.closeFileLocked()
	s.mu.Unlock()
}

// closeFileLocked closes the managed file (if any) and clears the
// file-backed state. Callers hold s.mu.
func (s *SlowLog) closeFileLocked() {
	if s.jsonFile == nil {
		return
	}
	if s.jsonW == io.Writer(s.jsonFile) {
		s.jsonW = nil
	}
	s.jsonFile.Close()
	s.jsonFile, s.jsonPath, s.jsonMaxBytes, s.jsonSize = nil, "", 0, 0
}

// writeJSONLocked appends one encoded entry to the JSON log, rotating a
// file-backed log first when the entry would push it past the size cap.
// Callers hold s.mu.
func (s *SlowLog) writeJSONLocked(line []byte) {
	if s.jsonFile != nil && s.jsonMaxBytes > 0 && s.jsonSize+int64(len(line)) > s.jsonMaxBytes && s.jsonSize > 0 {
		s.jsonFile.Close()
		os.Rename(s.jsonPath, s.jsonPath+".1")
		f, err := os.OpenFile(s.jsonPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			// Could not reopen: drop the file-backed log rather than crash
			// the query path; the next SetJSONFile can re-establish it.
			s.jsonFile, s.jsonW, s.jsonPath, s.jsonMaxBytes, s.jsonSize = nil, nil, "", 0, 0
			return
		}
		s.jsonFile, s.jsonW, s.jsonSize = f, f, 0
	}
	if s.jsonW != nil {
		n, _ := s.jsonW.Write(line)
		s.jsonSize += int64(n)
	}
}

// Observe checks rec against the threshold; when slow it writes the
// configured logs, bumps the slow-query counter, and reports true.
// Records carrying a panic stack are written to the configured logs
// regardless of the threshold — a panic is always worth the entry — but
// only genuinely slow queries count toward oj_slow_queries_total and
// report true.
func (s *SlowLog) Observe(rec *QueryRecord) bool {
	th := s.threshold.Load()
	slow := th > 0 && int64(rec.Duration) >= th
	if !slow && rec.Stack == "" {
		return false
	}
	if slow {
		SlowQueries.Inc()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.textW != nil {
		fmt.Fprint(s.textW, renderSlow(rec))
	}
	if s.jsonW != nil {
		if b, err := json.Marshal(rec); err == nil {
			s.writeJSONLocked(append(b, '\n'))
		}
	}
	return slow
}

// renderSlow renders the text form of a slow-query entry: the duration
// and query on the first line, then the plan the optimizer chose and
// why, the effort counters, and any governor events.
func renderSlow(rec *QueryRecord) string {
	var b strings.Builder
	head := "slow query"
	if rec.Stack != "" {
		head = "query panic"
	}
	fmt.Fprintf(&b, "%s (%s): %s\n", head, rec.Duration.Round(time.Microsecond), rec.Query)
	if rec.Strategy != "" {
		fmt.Fprintf(&b, "  strategy: %s", rec.Strategy)
		if rec.FallbackReason != "" {
			fmt.Fprintf(&b, " (fallback: %s)", rec.FallbackReason)
		}
		b.WriteByte('\n')
	}
	if rec.PlanTree != "" {
		fmt.Fprintf(&b, "  plan: %s\n", rec.PlanTree)
	}
	fmt.Fprintf(&b, "  rows: %d  tuples: %d", rec.Rows, rec.Tuples)
	if rec.QError > 0 {
		fmt.Fprintf(&b, "  q-err: %.2f", rec.QError)
	}
	b.WriteByte('\n')
	for _, ev := range rec.GovernorEvents {
		fmt.Fprintf(&b, "  governor: %s\n", ev)
	}
	if rec.Err != "" {
		fmt.Fprintf(&b, "  error: %s\n", rec.Err)
	}
	if rec.Stack != "" {
		b.WriteString("  stack:\n")
		for _, line := range strings.Split(strings.TrimRight(rec.Stack, "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}
