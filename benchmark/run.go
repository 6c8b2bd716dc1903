package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"freejoin/internal/server"
)

// env is one set-up: a served catalog, its connected clients and the
// request cycle they will replay.
type env struct {
	w     *workload
	sz    sizes
	srv   *server.Server
	admin *client // loads tables; never timed
	// conns[ci][si] is client ci's connection for the si-th planner
	// strategy of the cycle; conns[w.clients] are the oracle's.
	conns      [][]*client
	strategies []string
	queries    []query
	order      []int // seeded permutation of queries, cycled
	cat        catalog
	spillDir   string
	setup      setupTimes
}

type setupTimes struct {
	total, load, index time.Duration
	rows               int
}

// setUp generates the workload's inputs from seed, starts a server on
// loopback, loads tables and indexes over the wire and connects the
// clients. Only generated inputs cross into the server, never the seed.
func setUp(w *workload, seed int64, sz sizes, outDir string) (e *env, err error) {
	t0 := time.Now()
	rnd := rand.New(rand.NewSource(seed))
	e = &env{w: w, sz: sz, cat: w.build(rnd, sz)}
	e.queries = e.cat.queries
	e.order = rnd.Perm(len(e.queries))
	for i := range e.queries {
		q := &e.queries[i]
		q.session = slices.Index(e.strategies, q.strategy)
		if q.session < 0 {
			q.session = len(e.strategies)
			e.strategies = append(e.strategies, q.strategy)
		}
	}

	e.spillDir = filepath.Join(outDir, "spill")
	if err := os.MkdirAll(e.spillDir, 0o755); err != nil {
		return nil, err
	}
	planCache := 0
	if w.planCache != nil {
		planCache = w.planCache(sz)
	}
	e.srv, err = server.Start(server.Config{
		Addr:          "127.0.0.1:0",
		MetricsAddr:   "127.0.0.1:0",
		MaxConcurrent: 2, // nproc
		PlanCache:     planCache,
		SpillDir:      e.spillDir,
		MaxLineBytes:  16 << 20, // a 50,000-row table literal is one line
	})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	defer func() {
		if err != nil {
			e.close()
		}
	}()

	if e.admin, err = dial(e.srv.Addr()); err != nil {
		return nil, err
	}
	tLoad := time.Now()
	for _, t := range e.cat.tables {
		if _, err = e.admin.mustOK(t.literal()); err != nil {
			return nil, err
		}
		e.setup.rows += len(t.rows)
	}
	tIndex := time.Now()
	e.setup.load = tIndex.Sub(tLoad)
	for _, ix := range e.cat.indexes {
		if _, err = e.admin.mustOK("index " + ix[0] + " " + ix[1]); err != nil {
			return nil, err
		}
	}
	e.setup.index = time.Since(tIndex)

	e.conns = make([][]*client, w.clients+1)
	for ci := range e.conns {
		for _, strategy := range e.strategies {
			c, err := dial(e.srv.Addr())
			if err != nil {
				return nil, err
			}
			e.conns[ci] = append(e.conns[ci], c) // closed with e from here on
			for _, cmd := range w.prelude(strategy, sz) {
				if _, err = c.mustOK(cmd); err != nil {
					return nil, err
				}
			}
		}
	}
	e.setup.total = time.Since(t0)
	return e, nil
}

func (e *env) close() {
	if e.admin != nil {
		e.admin.close()
	}
	for _, conns := range e.conns {
		for _, c := range conns {
			c.close()
		}
	}
	e.srv.Close()
}

// epoch is the origin of every timestamp the benchmark records. Samples
// and spans hold nanoseconds since epoch, not time.Time: half a million
// of them stay live through a run, and a pointer-free log is memory the
// garbage collector of the measured process never has to scan.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// sample is one request as its client saw it; in the traced pass the
// same record is the request's outermost span.
type sample struct {
	start, end int64 // ns since epoch
	req        int32 // position in the request sequence, the request id
	q          int32 // index into env.queries
	tuples     int64
	hit        bool
	failed     bool
}

func (s sample) ms() float64 { return float64(s.end-s.start) / 1e6 }

// doFunc performs request number req (query q) for client ci and
// reports what came back.
type doFunc func(ci int, req int32, q *query) (reply, error)

// wireDo sends the request over the client's connection and reads only
// the tail of the answer.
func (e *env) wireDo(ci int, _ int32, q *query) (reply, error) {
	line, err := e.conns[ci][q.session].roundTrip(q.line, true)
	if err != nil {
		return reply{}, err
	}
	return parseTail(line)
}

// drive runs the closed loop from position first of the cycled
// sequence: client ci performs requests ci, ci+C, ci+2C, ... (request r
// is position first+r), each after its previous answer, until the
// deadline (ns since epoch; limit == 0) or until limit requests are
// done. Successive passes continue where the last one stopped, so that
// a pass never re-sends what the previous one has just left in a cache.
// A transport error ends the run; a refused or wrong answer is counted
// and the loop goes on.
func (e *env) drive(do doFunc, first int, deadline int64, limit int) ([]sample, error) {
	logs := make([][]sample, e.w.clients)
	errs := make([]error, e.w.clients)
	var wg sync.WaitGroup
	for ci := 0; ci < e.w.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			log := make([]sample, 0, 1<<14)
			for req := ci; limit == 0 || req < limit; req += e.w.clients {
				qi := e.order[(first+req)%len(e.order)]
				q := &e.queries[qi]
				t0 := now()
				if limit == 0 && t0 >= deadline {
					break
				}
				r, err := do(ci, int32(req), q)
				t1 := now()
				if err != nil {
					errs[ci] = fmt.Errorf("client %d, request %d (%s): %w", ci, req, q.tpl, err)
					break
				}
				log = append(log, sample{start: t0, end: t1, req: int32(req), q: int32(qi),
					tuples: r.Tuples, hit: r.Cache == "hit",
					failed: !r.OK || r.Rows != q.wantRows})
			}
			logs[ci] = log
		}(ci)
	}
	wg.Wait()
	var all []sample
	for ci, log := range logs {
		if errs[ci] != nil {
			return nil, errs[ci]
		}
		all = append(all, log...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].req < all[j].req })
	return all, nil
}

// procSnap is the process-wide resource reading taken at part edges.
type procSnap struct {
	at      int64         // ns since epoch
	cpu     time.Duration // user+sys, getrusage
	alloc   uint64        // MemStats.TotalAlloc
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		at:      now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// windowParts is how many equal parts the measured window is cut into.
// Each end-to-end value is computed per part and the median over the
// parts is reported, so a burst of noise from a neighbour on the shared
// box spoils a part or two, not the run.
const windowParts = 10

// window is one measured (tracing off) closed-loop run.
type window struct {
	samples []sample
	snaps   []procSnap // windowParts+1 edges
	before  map[string]float64
	after   map[string]float64
	bytes   int64 // client-side bytes sent + received
}

// measure drives the untraced window for dur from position first and
// samples process resources at every part edge.
func (e *env) measure(first int, dur time.Duration) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = scrape(e.srv.MetricsAddr()); err != nil {
		return nil, err
	}
	bytes0 := e.clientBytes()
	start := now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.snaps = append(w.snaps, snapProc())
		for k := 1; k <= windowParts; k++ {
			time.Sleep(time.Duration(start + int64(dur)*int64(k)/windowParts - now()))
			w.snaps = append(w.snaps, snapProc())
		}
	}()
	w.samples, err = e.drive(e.wireDo, first, start+int64(dur), 0)
	<-done
	if err != nil {
		return nil, err
	}
	w.bytes = e.clientBytes() - bytes0
	if w.after, err = scrape(e.srv.MetricsAddr()); err != nil {
		return nil, err
	}
	return w, nil
}

func (e *env) clientBytes() int64 {
	var n int64
	for _, conns := range e.conns[:e.w.clients] {
		for _, c := range conns {
			n += c.bytesIn + c.bytesOut
		}
	}
	return n
}

// measured is one end-to-end value with the per-part values it is the
// median of; the comparator reads the parts' spread.
type measured struct {
	Value float64   `json:"value"`
	Parts []float64 `json:"parts"`
}

func medianOf(parts []float64) measured { return measured{Value: median(parts), Parts: parts} }

// endToEndMetrics reduces the window to the end-to-end values: each is
// computed per part and the median over the parts is reported.
func (w *window) endToEndMetrics() map[string]measured {
	parts := map[string][]float64{}
	for k := 0; k+1 < len(w.snaps); k++ {
		a, b := w.snaps[k], w.snaps[k+1]
		var lat []float64
		for _, s := range w.samples {
			if !s.failed && s.end > a.at && s.end <= b.at {
				lat = append(lat, s.ms())
			}
		}
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		n := float64(len(lat))
		for name, v := range map[string]float64{
			"latency_p50_ms":     percentile(lat, 0.50),
			"latency_p95_ms":     percentile(lat, 0.95),
			"throughput_qps":     n / (float64(b.at-a.at) / 1e9),
			"cpu_ms_per_query":   float64(b.cpu-a.cpu) / 1e6 / n,
			"alloc_kb_per_query": float64(b.alloc-a.alloc) / 1024 / n,
		} {
			parts[name] = append(parts[name], v)
		}
	}
	m := map[string]measured{}
	for _, d := range endToEnd {
		if d.name != "setup_s" {
			m[d.name] = medianOf(parts[d.name])
		}
	}
	return m
}

// qps is the whole window's request rate, the base of
// trace.overhead_share.
func (w *window) qps() float64 {
	return ratio(float64(len(w.samples)), float64(w.snaps[len(w.snaps)-1].at-w.snaps[0].at)/1e9)
}

// after is the first position of the sequence that a pass which started
// at first and logged samples (in request order) did not reach. With two
// clients the faster one runs ahead, so this is past the last request
// made, not first plus the number made.
func after(first int, samples []sample) int {
	if len(samples) == 0 {
		return first
	}
	return first + int(samples[len(samples)-1].req) + 1
}

func countFailed(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.failed {
			n++
		}
	}
	return n
}

// countMetrics derives the per-layer counts and ratios of the measured
// window from the client's view and the /metrics deltas.
func (w *window) countMetrics(e *env) map[string]float64 {
	n := float64(len(w.samples))
	first, last := w.snaps[0], w.snaps[len(w.snaps)-1]
	secs := float64(last.at-first.at) / 1e9
	d := func(name string) float64 { return counterDelta(w.before, w.after, name) }

	var lat []float64
	var latSum, tuples, hits, rows float64
	byTpl := map[string][]float64{}
	for _, s := range w.samples {
		ms := s.ms()
		lat = append(lat, ms)
		latSum += ms
		tuples += float64(s.tuples)
		if s.hit {
			hits++
		}
		q := &e.queries[s.q]
		rows += float64(q.wantRows)
		byTpl[q.tpl] = append(byTpl[q.tpl], ms)
	}
	sort.Float64s(lat)

	m := map[string]float64{
		"wire.bytes_per_query":              ratio(float64(w.bytes), n),
		"server.admission_wait_us":          ratio(d("oj_admission_wait_seconds_sum")*1e6, d("oj_admission_wait_seconds_count")),
		"server.rejected_share":             ratio(d("oj_queries_rejected_total"), n),
		"plancache.hit_ratio":               ratio(hits, n), // the cache field of each response
		"plancache.evictions_per_query":     ratio(d("oj_plan_cache_evictions_total"), n),
		"optimizer.dp_subsets_per_query":    ratio(d("oj_dp_subsets_total"), n),
		"optimizer.dp_candidates_per_query": ratio(d("oj_dp_candidates_total"), n),
		"optimizer.yannakakis_share":        ratio(d(`oj_optimize_strategy_total{strategy="yannakakis"}`), d("oj_optimize_strategy_total{")),
		"exec.tuples_per_query":             ratio(tuples, n),
		"exec.rows_out_per_query":           ratio(rows, n),
		"exec.degradations_per_query":       ratio(d("oj_governor_degradations_total"), n),
		"resource.governor_trips_per_query": ratio(d("oj_governor_trips_total{"), n),
		"spill.bytes_per_query":             ratio(d("oj_spill_bytes_total"), n),
		"spill.runs_per_query":              ratio(d("oj_spill_runs_total"), n),
		"spill.partitions_per_query":        ratio(d("oj_spill_partitions_total"), n),
		"spill.write_share":                 ratio(d("oj_spill_write_seconds_sum")*1e3, latSum),
		"process.allocs_per_query":          ratio(float64(last.mallocs-first.mallocs), n),
		"process.gc_cycles_per_s":           ratio(float64(last.numGC-first.numGC), secs),
		"process.gc_pause_ms":               ratio(float64(last.pauseNs-first.pauseNs)/1e6, secs),
		"client.latency_p99_ms":             percentile(lat, 0.99),
		"client.latency_max_ms":             percentile(lat, 1),
		"client.samples":                    n,
		"client.failed_share":               ratio(float64(countFailed(w.samples)), n),
		"storage.load_rows_per_s":           ratio(float64(e.setup.rows), e.setup.load.Seconds()),
		"storage.index_build_ms":            float64(e.setup.index) / 1e6,
	}
	for tpl, ms := range byTpl {
		m["client.tpl."+tpl+".p50_ms"] = median(ms)
	}
	return m
}

// heapLiveMB is the live heap after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
