package main

import (
	"bufio"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDecl is one metric as BENCHMARK.json declares it. The tables
// below are the single source of names and units; bench_test.go checks
// BENCHMARK.json against them.
type metricDecl struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the base a value may worsen by
}

// endToEnd are the metrics a client of the server sees. Latencies,
// throughput, CPU and allocation are medians over the parts the
// measured window is cut into (see windowParts); setup_s is the median
// of repeated set-ups. The bounds are set from the spread this sandbox
// shows between runs of one binary (see README.md): a bound has to be
// wider than that spread to tell a regression from noise.
var endToEnd = []metricDecl{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"alloc_kb_per_query", "KiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// templates names every query template of every workload; each gets a
// client.tpl.<name>.p50_ms metric, 0 on workloads that do not send it.
var templates = []string{
	"nice2", "nice3", "nice4", "example1",
	"chain7", "star7", "tree7",
	"chain3_outer", "star4_mixed", "dangling_tree5", "dangling_tree5_auto",
	"wide_outer",
}

// perLayer are the metrics of single layers, prefixed by module. Counts
// come from the client's view of responses and from the server's
// /metrics endpoint over the measured window; *_us times come from the
// traced pass (see trace.go).
var perLayer = func() []metricDecl {
	ds := []metricDecl{
		{name: "wire.self_us", unit: "us", better: "lower"},
		{name: "wire.bytes_per_query", unit: "B", better: "lower"},
		{name: "server.session_self_us", unit: "us", better: "lower"},
		{name: "server.admission_us", unit: "us", better: "lower"},
		{name: "server.admission_wait_us", unit: "us", better: "lower"},
		{name: "server.rejected_share", unit: "ratio", better: "lower"},
		{name: "server.encode_json_us", unit: "us", better: "lower"},
		{name: "relation.render_us", unit: "us", better: "lower"},
		{name: "parse.expr_us", unit: "us", better: "lower"},
		{name: "core.analyze_us", unit: "us", better: "lower"},
		{name: "plancache.fingerprint_us", unit: "us", better: "lower"},
		{name: "plancache.hit_ratio", unit: "ratio", better: "higher"},
		{name: "plancache.evictions_per_query", unit: "count", better: "lower"},
		{name: "optimizer.plan_hit_us", unit: "us", better: "lower"},
		{name: "optimizer.plan_miss_us", unit: "us", better: "lower"},
		{name: "optimizer.dp_us", unit: "us", better: "lower"},
		{name: "optimizer.dp_subsets_per_query", unit: "count", better: "lower"},
		{name: "optimizer.dp_candidates_per_query", unit: "count", better: "lower"},
		{name: "optimizer.build_us", unit: "us", better: "lower"},
		{name: "optimizer.yannakakis_share", unit: "ratio", better: "higher"},
		{name: "exec.run_us", unit: "us", better: "lower"},
		{name: "exec.input_rows_per_s", unit: "1/s", better: "higher"},
		{name: "exec.tuples_per_query", unit: "count", better: "lower"},
		{name: "exec.rows_out_per_query", unit: "count", better: "higher"},
		{name: "exec.degradations_per_query", unit: "count", better: "lower"},
		{name: "resource.governor_trips_per_query", unit: "count", better: "lower"},
		{name: "spill.bytes_per_query", unit: "B", better: "lower"},
		{name: "spill.runs_per_query", unit: "count", better: "lower"},
		{name: "spill.partitions_per_query", unit: "count", better: "lower"},
		{name: "spill.write_share", unit: "ratio", better: "lower"},
		{name: "storage.load_rows_per_s", unit: "1/s", better: "higher"},
		{name: "storage.index_build_ms", unit: "ms", better: "lower"},
		{name: "process.allocs_per_query", unit: "count", better: "lower"},
		{name: "process.gc_cycles_per_s", unit: "1/s", better: "lower"},
		{name: "process.gc_pause_ms", unit: "ms", better: "lower"},
		{name: "process.heap_live_mb", unit: "MiB", better: "lower"},
		{name: "client.latency_p99_ms", unit: "ms", better: "lower"},
		{name: "client.latency_max_ms", unit: "ms", better: "lower"},
		{name: "client.samples", unit: "count", better: "higher"},
		{name: "client.failed_share", unit: "ratio", better: "lower"},
	}
	for _, t := range templates {
		ds = append(ds, metricDecl{name: "client.tpl." + t + ".p50_ms", unit: "ms", better: "lower"})
	}
	return append(ds,
		metricDecl{name: "trace.latency_p50_us", unit: "us", better: "lower"},
		metricDecl{name: "trace.request_us", unit: "us", better: "lower"},
		metricDecl{name: "trace.overhead_share", unit: "ratio", better: "lower"},
		metricDecl{name: "trace.unreconciled_share", unit: "ratio", better: "lower"},
	)
}()

// scrape reads the server's public /metrics endpoint into a map from
// "name" or "name{labels}" to value.
func scrape(addr string) (map[string]float64, error) {
	hc := http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: %s", resp.Status)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return m, nil
}

// counterDelta is after-before for one series, and for every series of
// a family when name ends in "{" (all label sets summed).
func counterDelta(before, after map[string]float64, name string) float64 {
	if !strings.HasSuffix(name, "{") {
		return after[name] - before[name]
	}
	var d float64
	for k, v := range after {
		if strings.HasPrefix(k, name) {
			d += v - before[k]
		}
	}
	return d
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
