// Package obs is the process-wide observability layer: a metrics
// registry (counters, gauges, fixed-bucket histograms), a query tracer
// with Chrome-trace span export, a ring buffer of recent queries, a
// threshold-driven slow-query log, and an HTTP monitoring endpoint.
//
// Where PR 1's EXPLAIN ANALYZE and PR 2's governor events die with the
// query that produced them, obs aggregates across executions: every
// optimization records its strategy, every execution its rows and
// tuples, every governor trip its kind — scrapeable at /metrics in
// Prometheus text exposition format (hand-rolled, no dependencies).
//
// The package is a leaf: it imports only the standard library, so the
// engine layers (resource, storage, exec, optimizer) and the commands
// can all hook into it without cycles. All instruments are safe for
// concurrent use and allocation-free on the hot path (see
// BenchmarkCounterAdd / BenchmarkHistogramObserve).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// counterStripes is the number of cache-line-padded cells a Counter is
// striped across. Eight stripes keep concurrent sessions from serializing
// on one cache line while costing only 512 bytes per counter.
const counterStripes = 8

// cell is one counter stripe, padded to a 64-byte cache line so
// neighboring stripes never false-share.
type cell struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing instrument, striped so that
// concurrent writers (server sessions running queries at once) do not
// contend on a single cache line. Add charges stripe 0 — the
// right default for per-query hooks; genuinely hot concurrent paths
// spread themselves with AddAt, passing any stable per-worker hint
// (partition index, worker id). Reads sum the stripes.
type Counter struct {
	desc
	cells [counterStripes]cell
}

// Inc adds one.
func (c *Counter) Inc() { c.cells[0].n.Add(1) }

// Add adds n (stripe 0).
func (c *Counter) Add(n int64) { c.cells[0].n.Add(n) }

// AddAt adds n on the stripe selected by hint, for writers that already
// carry a worker identity. Any hint value is valid.
func (c *Counter) AddAt(hint uint32, n int64) {
	c.cells[hint%counterStripes].n.Add(n)
}

// Value returns the current total across all stripes.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.cells {
		t += c.cells[i].n.Load()
	}
	return t
}

// Gauge is an instrument that can go up and down (active queries,
// current budget usage).
type Gauge struct {
	desc
	n atomic.Int64
}

// FloatGauge is a gauge holding a float64 (quantiles, seconds) — the
// runtime sampler's GC-pause and scheduler-latency exports. Reads and
// writes are atomic on the value's bit pattern.
type FloatGauge struct {
	desc
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.n.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.n.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.n.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: Observe finds the first upper bound ≥ v and increments that
// bucket; exposition emits cumulative `_bucket{le="..."}` lines plus
// `_sum` and `_count`. Bounds are fixed at construction, observations
// are lock-free atomics, and Observe allocates nothing.
type Histogram struct {
	desc
	bounds []float64      // strictly increasing upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
	// exemplars holds, per bucket, the most recent (value, query ID)
	// observed with ObserveExemplar — the link from a latency bucket back
	// to a concrete query in the recent-query ring. Lazily allocated slots
	// swapped atomically; plain Observe never touches them.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar ties one histogram observation to the query that produced
// it, OpenMetrics-style: the observed value, the query ID (look it up in
// /debug/queries), and when it was recorded.
type Exemplar struct {
	Value   float64   `json:"value"`
	QueryID uint64    `json:"query_id"`
	Time    time.Time `json:"time"`
}

// DefBuckets are latency buckets in seconds, 100µs to ~100s, suitable
// for the query-duration histogram.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 100,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := floatBits(bitsFloat(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one value and stamps the bucket it lands in
// with an exemplar naming the query that produced the observation, so a
// scrape with ?exemplars=1 (or the Exemplars accessor) can link latency
// buckets to concrete recent query IDs.
func (h *Histogram) ObserveExemplar(v float64, queryID uint64) {
	h.Observe(v)
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.exemplars[i].Store(&Exemplar{Value: v, QueryID: queryID, Time: time.Now()})
}

// Exemplars returns the per-bucket exemplars, indexed like the buckets
// (len(bounds)+1, last is +Inf); nil entries are buckets that never saw
// an exemplar observation.
func (h *Histogram) Exemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return bitsFloat(h.sum.Load()) }

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// desc is the exposition identity of an instrument: metric name, help
// text, and a pre-rendered label set (`strategy="reordered"`).
type desc struct {
	name   string
	help   string
	labels string
}

// metric is anything the registry can expose.
type metric interface {
	describe() *desc
	// write appends the sample line(s), name and labels included; when
	// exemplars is set, histograms annotate bucket lines OpenMetrics-style.
	write(b *strings.Builder, exemplars bool)
}

func (c *Counter) describe() *desc    { return &c.desc }
func (g *Gauge) describe() *desc      { return &g.desc }
func (g *FloatGauge) describe() *desc { return &g.desc }
func (h *Histogram) describe() *desc  { return &h.desc }

func (c *Counter) write(b *strings.Builder, _ bool) {
	sampleLine(b, c.name, c.labels, "", fmt.Sprintf("%d", c.Value()))
}

func (g *Gauge) write(b *strings.Builder, _ bool) {
	sampleLine(b, g.name, g.labels, "", fmt.Sprintf("%d", g.Value()))
}

func (g *FloatGauge) write(b *strings.Builder, _ bool) {
	sampleLine(b, g.name, g.labels, "", fmt.Sprintf("%g", g.Value()))
}

func (h *Histogram) write(b *strings.Builder, exemplars bool) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		sampleLine(b, h.name+"_bucket", h.labels, fmt.Sprintf(`le="%v"`, bound),
			fmt.Sprintf("%d", cum)+h.exemplarSuffix(i, exemplars))
	}
	cum += h.counts[len(h.bounds)].Load()
	sampleLine(b, h.name+"_bucket", h.labels, `le="+Inf"`,
		fmt.Sprintf("%d", cum)+h.exemplarSuffix(len(h.bounds), exemplars))
	sampleLine(b, h.name+"_sum", h.labels, "", fmt.Sprintf("%g", h.Sum()))
	sampleLine(b, h.name+"_count", h.labels, "", fmt.Sprintf("%d", h.count.Load()))
}

// exemplarSuffix renders the OpenMetrics exemplar annotation for bucket
// i (` # {query_id="17"} 0.0042 1700000000.123`), or "" when exemplars
// are off or the bucket has never seen one.
func (h *Histogram) exemplarSuffix(i int, enabled bool) string {
	if !enabled {
		return ""
	}
	e := h.exemplars[i].Load()
	if e == nil {
		return ""
	}
	return fmt.Sprintf(` # {query_id="%d"} %g %.3f`,
		e.QueryID, e.Value, float64(e.Time.UnixMilli())/1000)
}

// sampleLine writes `name{labels,extra} value\n`, omitting empty braces.
func sampleLine(b *strings.Builder, name, labels, extra, value string) {
	b.WriteString(name)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// typeOf returns the Prometheus TYPE keyword for a metric.
func typeOf(m metric) string {
	switch m.(type) {
	case *Counter:
		return "counter"
	case *Gauge, *FloatGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds a set of instruments and renders them in Prometheus
// text exposition format. Registration is cheap and infrequent (package
// init, test setup); reads and writes of the instruments themselves
// never touch the registry lock.
type Registry struct {
	mu       sync.Mutex
	metrics  []metric
	onScrape []func()
}

// OnScrape registers a hook run at the start of every WritePrometheus
// call, before instruments are read — the refresh point for pull-style
// sources like the runtime/metrics sampler, so a scrape always sees
// fresh values even without a background sampler running.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, f)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// register appends m; duplicate (name, labels) pairs are a programming
// error and panic at registration time, not scrape time.
func (r *Registry) register(m metric) {
	d := m.describe()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, old := range r.metrics {
		od := old.describe()
		if od.name == d.name && od.labels == d.labels {
			panic(fmt.Sprintf("obs: duplicate metric %s{%s}", d.name, d.labels))
		}
	}
	r.metrics = append(r.metrics, m)
}

// NewCounter registers a counter. kv are alternating label keys and
// values ("strategy", "reordered").
func (r *Registry) NewCounter(name, help string, kv ...string) *Counter {
	c := &Counter{desc: desc{name: name, help: help, labels: renderLabels(kv)}}
	r.register(c)
	return c
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string, kv ...string) *Gauge {
	g := &Gauge{desc: desc{name: name, help: help, labels: renderLabels(kv)}}
	r.register(g)
	return g
}

// NewHistogram registers a histogram over the given strictly increasing
// upper bounds (a +Inf bucket is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64, kv ...string) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not increasing at %d", name, i))
		}
	}
	h := &Histogram{
		desc:      desc{name: name, help: help, labels: renderLabels(kv)},
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
	r.register(h)
	return h
}

// NewFloatGauge registers a float-valued gauge.
func (r *Registry) NewFloatGauge(name, help string, kv ...string) *FloatGauge {
	g := &FloatGauge{desc: desc{name: name, help: help, labels: renderLabels(kv)}}
	r.register(g)
	return g
}

// renderLabels renders alternating key/value pairs as `k="v",k2="v2"`.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s=%q`, kv[i], kv[i+1])
	}
	return b.String()
}

// WritePrometheus renders every registered instrument in text exposition
// format, grouped by metric name (one HELP/TYPE header per name, label
// variants as separate sample lines under it), names sorted for stable
// output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteExemplars is WritePrometheus with OpenMetrics exemplar
// annotations on histogram bucket lines — served at /metrics?exemplars=1
// so the default scrape stays strict Prometheus text format.
func (r *Registry) WriteExemplars(w io.Writer) error {
	return r.writeExposition(w, true)
}

func (r *Registry) writeExposition(w io.Writer, exemplars bool) error {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	hooks := append([]func(){}, r.onScrape...)
	r.mu.Unlock()
	for _, f := range hooks {
		f()
	}

	sort.SliceStable(ms, func(i, j int) bool {
		di, dj := ms[i].describe(), ms[j].describe()
		if di.name != dj.name {
			return di.name < dj.name
		}
		return di.labels < dj.labels
	})
	var b strings.Builder
	prev := ""
	for _, m := range ms {
		d := m.describe()
		if d.name != prev {
			fmt.Fprintf(&b, "# HELP %s %s\n", d.name, d.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", d.name, typeOf(m))
			prev = d.name
		}
		m.write(&b, exemplars)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
