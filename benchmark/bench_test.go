package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestDeclarationsMatchBenchmarkJSON: the metric and workload tables in
// this package and the root BENCHMARK.json declare the same names,
// units, directions and bounds, within the schema's limits.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, got, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}

	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
		if !name.MatchString(d.name) || seen[d.name] || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end %s: bad or repeated name, or bound %g outside (0, 0.25]", d.name, d.bound)
		}
		seen[d.name] = true
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
		if !name.MatchString(d.name) || seen[d.name] {
			t.Errorf("per-layer %s: bad or repeated name", d.name)
		}
		seen[d.name] = true
	}
}

// TestSmoke runs every workload end to end at smoke size — set-up,
// oracle, warm-up, measured window, traced pass, guards relaxed to
// "path engaged" — and checks that the names each run emits are exactly
// the declared ones and that the traces load.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "results.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "7", "-out", out, "-trace-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, stderr.String())
	}
	file, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("results hold %d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for _, res := range file.Workloads {
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d requests failed", res.Workload, res.Failed, res.Attempted)
		}
		if len(res.EndToEnd) != len(endToEnd) || len(res.PerLayer) != len(perLayer) {
			t.Errorf("%s: emitted %d+%d metrics, declared %d+%d", res.Workload,
				len(res.EndToEnd), len(res.PerLayer), len(endToEnd), len(perLayer))
		}
		for _, d := range endToEnd {
			if m, ok := res.EndToEnd[d.name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s missing or not positive (%v)", res.Workload, d.name, m.Value)
			}
		}
		for _, d := range perLayer {
			if _, ok := res.PerLayer[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", res.Workload, d.name)
			}
		}
		for _, must := range []string{"trace.request_us", "exec.run_us", "parse.expr_us", "client.samples"} {
			if res.PerLayer[must] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", res.Workload, must, res.PerLayer[must])
			}
		}
		buf, err := os.ReadFile(filepath.Join(dir, "trace-"+res.Workload+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace does not load or is empty: %v", res.Workload, err)
		}
	}

	// The comparator accepts a run against itself.
	var table bytes.Buffer
	if code := compareFiles(out, out, &table, &stderr); code != 0 {
		t.Errorf("-compare of a results file with itself: exit code %d\n%s", code, table.String())
	}
}

// TestOracleCatchesWrongAnswer: a rendered result that differs from the
// reference in one cell must not pass.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	e, err := setUp(findWorkload("point_hit"), 3, smokeSizes, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if _, err := e.oracle(); err != nil {
		t.Fatalf("oracle on a healthy server: %v", err)
	}
	// Replace the small tables behind the oracle's back: the server now
	// answers from data the reference does not have.
	for i := 0; i < 8; i++ {
		if _, err := e.admin.mustOK(fmt.Sprintf("table P%d(a, b) = (1, 1), (2, 2)", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.oracle(); err == nil {
		t.Fatal("oracle accepted answers computed from a different table")
	}
}

// TestSingleRunContract: the single-run mode prints one JSON object with
// exactly the contract's keys as its last line, end-to-end names with
// -trace 0 and per-layer names with -trace 1.
func TestSingleRunContract(t *testing.T) {
	for _, tc := range []struct {
		trace string
		want  []metricDecl
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "wide_result", "--seed", "2", "--seconds", "1", "--trace", tc.trace,
			"-smoke", "-trace-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s: exit code %d\n%s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("-trace %s: last line is not the result object: %v", tc.trace, err)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("-trace %s: correct/attempted/failed = %v/%v/%v", tc.trace, got.Correct, got.Attempted, got.Failed)
		}
		if len(got.Metrics) != len(tc.want) {
			t.Errorf("-trace %s: %d metrics, want %d", tc.trace, len(got.Metrics), len(tc.want))
		}
		for _, d := range tc.want {
			if m, ok := got.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
				t.Errorf("-trace %s: metric %s missing or unit %q != %q", tc.trace, d.name, m.Unit, d.unit)
			}
		}
	}
}
