// Command benchmark is the repository's served-query benchmark: it
// starts a real ojserver core on loopback inside this process, loads
// seeded catalogs, drives five closed-loop workloads over TCP with its
// own protocol client, checks every answer against the reference
// algebra, and reports end-to-end metrics (tracing off) and per-layer
// metrics (a traced pass that times the calls into each layer from
// outside). See README.md in this directory.
//
//	go run ./benchmark -seed 1 -out benchmark/out/results.json     every workload, 20 s + 6 s traced each
//	go run ./benchmark -workload scan_join -seed 3 -seconds 10 -trace 0   one run, result as the last line
//	go run ./benchmark -compare a.json b.json                      A/A or A/B table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig sizes one workload run.
type runConfig struct {
	seed    int64
	sz      sizes
	smoke   bool
	outDir  string        // trace files and the spill directory
	setups  int           // fewest set-up repetitions; setup_s is their median
	warm    time.Duration // untimed
	measure time.Duration // tracing off
	trace   time.Duration // traced pass, 0 = none
	// minSamples is the fewest requests the measured window must hold
	// for its percentiles to be reported: 100 per part, so that 5 lie
	// beyond each part's p95.
	minSamples int
}

// result is one workload's outcome, as written to the results file.
type result struct {
	Workload   string              `json:"workload"`
	Clients    int                 `json:"clients"`
	EndToEnd   map[string]measured `json:"end_to_end"`
	PerLayer   map[string]float64  `json:"per_layer"`
	Attempted  int                 `json:"attempted"`
	Failed     int                 `json:"failed"`
	Strategies map[string]string   `json:"strategies"`
	Durations  map[string]float64  `json:"durations_s"`
}

// resultsFile is the whole run.
type resultsFile struct {
	Seed       int64     `json:"seed"`
	Commit     string    `json:"commit"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Smoke      bool      `json:"smoke"`
	Workloads  []*result `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1, "workload seed: tables, graphs, written trees and request order derive from it")
		name     = fs.String("workload", "", "run one workload (default: all five)")
		seconds  = fs.Int("seconds", 0, "single-run mode: measure for this many seconds and print one JSON result as the last line")
		traceArg = fs.Int("trace", 0, "single-run mode: 0 prints the end-to-end metrics, 1 spends half the time in the traced pass and prints the per-layer metrics")
		out      = fs.String("out", "", "write the results JSON here (suite mode; default <trace-out>/results.json)")
		traceOut = fs.String("trace-out", filepath.Join("benchmark", "out"), "directory for trace-<workload>.json and spill files")
		smoke    = fs.Bool("smoke", false, "tiny tables and sub-second windows; guards only check that each path was engaged")
		compare  = fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	rc := runConfig{seed: *seed, sz: fullSizes, smoke: *smoke, outDir: *traceOut,
		setups: 9, warm: 3 * time.Second, measure: 20 * time.Second, trace: 6 * time.Second,
		minSamples: 100 * windowParts}
	if *smoke {
		rc.sz, rc.setups, rc.minSamples = smokeSizes, 1, 0
		rc.warm, rc.measure, rc.trace = 50*time.Millisecond, 150*time.Millisecond, 120*time.Millisecond
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}

	if *seconds > 0 {
		if len(selected) != 1 {
			fmt.Fprintln(stderr, "benchmark: -seconds needs -workload")
			return 2
		}
		total := time.Duration(*seconds) * time.Second
		rc.warm = min(rc.warm, total/4)
		rc.measure, rc.trace = total, 0
		if *traceArg == 1 {
			// Half the time each; the shorter window only feeds counts.
			rc.measure, rc.trace, rc.minSamples = total/2, total/2, 0
		}
		res, err := runWorkload(selected[0], rc)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", selected[0].name, err)
			return 1
		}
		printSingle(res, *traceArg == 1, stdout)
		if res.Failed > 0 {
			return 1
		}
		return 0
	}

	file := resultsFile{Seed: *seed, Commit: commit(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Smoke: *smoke}
	for _, w := range selected {
		res, err := runWorkload(w, rc)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if res.Failed > 0 {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d requests failed\n", w.name, res.Failed, res.Attempted)
			return 1
		}
		printResult(res, stdout)
		file.Workloads = append(file.Workloads, res)
	}
	path := *out
	if path == "" {
		path = filepath.Join(*traceOut, "results.json")
	}
	buf, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, append(buf, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: write results: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "results: %s\n", path)
	return 0
}

// runWorkload sets up (rc.setups times), checks every query against the
// reference, warms up, measures with tracing off and, when asked, runs
// the traced pass. It fails, writing no metrics, when an answer is
// wrong or the workload's mechanism was not engaged.
func runWorkload(w *workload, rc runConfig) (*result, error) {
	res := &result{Workload: w.name, Clients: w.clients, Durations: map[string]float64{}}
	began := time.Now()

	var e *env
	var setups []float64
	// A small catalog sets up in milliseconds, where one scheduling
	// hiccup is a third of the value: repeat up to four times as often
	// while the repetitions still fit in a second.
	for i := 0; i < rc.setups || (i < 4*rc.setups && time.Since(began) < time.Second); i++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = setUp(w, rc.seed, rc.sz, rc.outDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, e.setup.total.Seconds())
	}
	defer e.close()
	res.Durations["setup_all"] = time.Since(began).Seconds()

	t := time.Now()
	var err error
	if res.Strategies, err = e.oracle(); err != nil {
		return nil, err
	}
	res.Durations["oracle"] = time.Since(t).Seconds()

	runtime.GC()
	t = time.Now()
	warm, err := e.drive(e.wireDo, 0, now()+int64(rc.warm), 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.Durations["warmup"] = time.Since(t).Seconds()

	t = time.Now()
	pos := after(0, warm)
	win, err := e.measure(pos, rc.measure)
	if err != nil {
		return nil, fmt.Errorf("measured window: %w", err)
	}
	res.Durations["measured"] = time.Since(t).Seconds()
	res.EndToEnd = win.endToEndMetrics()
	res.EndToEnd["setup_s"] = medianOf(setups)
	res.PerLayer = win.countMetrics(e)
	res.Attempted = len(warm) + len(win.samples)
	res.Failed = countFailed(warm) + countFailed(win.samples)

	if rc.trace > 0 {
		t = time.Now()
		tp, err := e.trace(after(pos, win.samples), rc.trace)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		res.Durations["traced"] = time.Since(t).Seconds()
		for k, v := range tp.timeMetrics(e, win.qps()) {
			res.PerLayer[k] = v
		}
		res.PerLayer["exec.input_rows_per_s"] = ratio(res.PerLayer["exec.tuples_per_query"]*1e6, res.PerLayer["exec.run_us"])
		for _, lv := range tp.levels {
			res.Attempted += len(lv)
			res.Failed += countFailed(lv)
		}
		if err := tp.writeFile(e, filepath.Join(rc.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	res.PerLayer["process.heap_live_mb"] = heapLiveMB()
	for _, d := range perLayer {
		if _, ok := res.PerLayer[d.name]; !ok {
			res.PerLayer[d.name] = 0 // a template or pass this run does not have
		}
	}
	res.Durations["total"] = time.Since(began).Seconds()

	if res.Failed > 0 {
		return res, nil // reported by the caller; guards would only add noise
	}
	if err := w.guard(res, rc.smoke); err != nil {
		return nil, fmt.Errorf("mechanism guard: %w", err)
	}
	if n := len(win.samples); n < rc.minSamples {
		return nil, fmt.Errorf("mechanism guard: %d samples in the measured window, want >= %d", n, rc.minSamples)
	}
	return res, nil
}

// printSingle writes the single-run result: one JSON object on the
// last line of standard output.
func printSingle(res *result, traced bool, stdout io.Writer) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer {
			metrics[d.name] = value{res.PerLayer[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.name] = value{res.EndToEnd[d.name].Value, d.unit}
		}
	}
	buf, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // numbers and strings only
	}
	fmt.Fprintf(stdout, "%s\n", buf)
}

// printResult writes every metric of one workload by name and unit,
// then the shares of the request the workload exists to expose.
func printResult(res *result, stdout io.Writer) {
	fmt.Fprintf(stdout, "== %s  (%d client(s), closed loop, %d requests, %d failed, %.1f s)\n",
		res.Workload, res.Clients, res.Attempted, res.Failed, res.Durations["total"])
	for _, d := range endToEnd {
		m := res.EndToEnd[d.name]
		fmt.Fprintf(stdout, "  %-36s %14.4f %-6s (median of %d parts, samples %d, bound %.2f, %s is better)\n",
			d.name, m.Value, d.unit, len(m.Parts), int(res.PerLayer["client.samples"]), d.bound, d.better)
	}
	byName := slices.Clone(perLayer)
	slices.SortFunc(byName, func(a, b metricDecl) int { return strings.Compare(a.name, b.name) })
	for _, d := range byName {
		fmt.Fprintf(stdout, "  %-36s %14.4f %s\n", d.name, res.PerLayer[d.name], d.unit)
	}
	for _, s := range dominance(res) {
		fmt.Fprintf(stdout, "  %s\n", s)
	}
	fmt.Fprintf(stdout, "  strategies: %v\n", res.Strategies)
}

// dominance reports, from the traced pass, the share of the traced
// request each workload says dominates it, against the share the
// workload was sized for.
func dominance(res *result) []string {
	p := res.PerLayer
	req := p["trace.request_us"]
	if req == 0 {
		return nil
	}
	share := func(names ...string) float64 {
		var sum float64
		for _, n := range names {
			sum += p[n]
		}
		return sum / req
	}
	line := func(what string, got float64, atLeast bool, want float64) string {
		verdict, op := "ok", ">="
		if !atLeast {
			op = "<="
		}
		if (atLeast && got < want) || (!atLeast && got > want) {
			verdict = "MISSED"
		}
		return fmt.Sprintf("share of the %.1f us traced request: %s = %.3f (sized for %s %.2f) %s", req, what, got, op, want, verdict)
	}
	plan := ratio(p["optimizer.plan_hit_us"]*p["plancache.hit_ratio"]+p["optimizer.plan_miss_us"]*(1-p["plancache.hit_ratio"]), req)
	var out []string
	switch res.Workload {
	case "point_hit":
		out = append(out, line("exec.run_us", share("exec.run_us"), false, 0.25))
		// The spans account for the round trip: their sum (per-template
		// medians, weighted) against the median of all traced requests.
		parts := (share("wire.self_us", "server.session_self_us", "parse.expr_us", "server.admission_us",
			"optimizer.build_us", "exec.run_us", "relation.render_us", "server.encode_json_us") + plan) * req
		out = append(out, fmt.Sprintf("wire self + session self + all layer spans = %.1f us, traced latency p50 = %.1f us, ratio %.3f (want 0.90-1.10)",
			parts, p["trace.latency_p50_us"], ratio(parts, p["trace.latency_p50_us"])))
	case "plan_cold":
		out = append(out, line("exec.run_us", share("exec.run_us"), false, 0.25))
		out = append(out, line("optimizer.plan_miss_us + parse.expr_us (analyze is inside plan)",
			share("parse.expr_us")+plan, true, 0.60))
	case "scan_join":
		out = append(out, line("exec.run_us", share("exec.run_us"), true, 0.70))
	case "spill_join":
		out = append(out, line("exec.run_us", share("exec.run_us"), true, 0.70))
	case "wide_result":
		out = append(out, line("relation.render_us + server.encode_json_us + wire.self_us",
			share("relation.render_us", "server.encode_json_us", "wire.self_us"), true, 0.50))
	}
	return out
}

// commit is the VCS revision the binary was built from, when the
// toolchain stamped one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
