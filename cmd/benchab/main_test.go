package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median = %v, want 1.5", got)
	}
}

func TestSummarizeVerdicts(t *testing.T) {
	ref := []float64{10, 11, 10, 12, 10, 11, 10, 11, 10, 12}
	faster := []float64{6, 7, 6, 6, 7, 6, 6, 7, 6, 6}
	if r := summarize("latency_p50_ms", ref, faster, "lower"); r.verdict != "better" || r.wins != 10 {
		t.Errorf("clear gain: %+v", r)
	}
	if r := summarize("throughput_qps", ref, faster, "higher"); r.verdict != "worse" {
		t.Errorf("clear loss: %+v", r)
	}
	same := []float64{10, 11, 11, 11, 10, 11, 10, 12, 10, 11}
	if r := summarize("latency_p50_ms", ref, same, "lower"); r.verdict != "-" {
		t.Errorf("noise must not be a verdict: %+v", r)
	}
	// Eight wins in ten is not enough, however large the median gap.
	mostly := []float64{6, 6, 6, 6, 6, 6, 6, 6, 20, 20}
	if r := summarize("latency_p50_ms", ref, mostly, "lower"); r.verdict != "-" {
		t.Errorf("8/10 wins: %+v", r)
	}
}

func TestParseResultTakesLastLine(t *testing.T) {
	out := []byte("== progress\n{\"correct\":true,\"metrics\":{\"latency_p50_ms\":{\"value\":4.5,\"unit\":\"ms\"}}}\n")
	m, err := parseResult(out)
	if err != nil || m["latency_p50_ms"] != 4.5 {
		t.Fatalf("parseResult = %v, %v", m, err)
	}
	if _, err := parseResult([]byte(`{"correct":false,"metrics":{}}`)); err == nil {
		t.Error("a run with wrong answers must be an error")
	}
}

func TestPrintTable(t *testing.T) {
	ref := []map[string]float64{{"a": 1}, {"a": 1}}
	cur := []map[string]float64{{"a": 2}, {"a": 2}}
	var b bytes.Buffer
	printTable(&b, "w", ref, cur, map[string]string{"a": "lower"})
	if !strings.Contains(b.String(), "| a | 1 | 1-1 | 2 | 2.000 | 0/2 | worse |") {
		t.Errorf("table:\n%s", b.String())
	}
}
