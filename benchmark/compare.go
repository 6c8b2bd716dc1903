package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles prints one row per workload and end-to-end metric of
// two results files: both values, the relative change of b with a as
// its base, the bound, and a verdict. A change for the worse beyond the
// bound is "regressed", or "unresolved" when either side's own parts
// spread wider than the bound, so the difference cannot be told from
// noise. Any row outside its bound makes the exit code 1.
func compareFiles(aPath, bPath string, stdout, stderr io.Writer) int {
	a, err := readResults(aPath)
	if err == nil {
		var b *resultsFile
		if b, err = readResults(bPath); err == nil {
			if outside := compareResults(a, b, stdout); outside > 0 {
				fmt.Fprintf(stdout, "%d row(s) outside their bound\n", outside)
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "benchmark: compare: %v\n", err)
	return 2
}

func readResults(path string) (*resultsFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func compareResults(a, b *resultsFile, stdout io.Writer) (outside int) {
	fmt.Fprintf(stdout, "a: seed %d commit %s %s nproc %d GOMAXPROCS %d\n", a.Seed, a.Commit, a.GoVersion, a.NumCPU, a.GOMAXPROCS)
	fmt.Fprintf(stdout, "b: seed %d commit %s %s nproc %d GOMAXPROCS %d\n", b.Seed, b.Commit, b.GoVersion, b.NumCPU, b.GOMAXPROCS)
	fmt.Fprintf(stdout, "%-12s %-20s %12s %12s %9s %6s  %s\n", "workload", "metric", "a", "b", "(b-a)/a", "bound", "verdict")
	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(stdout, "%-12s missing from b\n", ra.Workload)
			outside++
			continue
		}
		for _, d := range endToEnd {
			ma, mb := ra.EndToEnd[d.name], rb.EndToEnd[d.name]
			rel := ratio(mb.Value-ma.Value, ma.Value)
			worse := rel
			if d.better == "higher" {
				worse = -rel
			}
			verdict := "ok"
			if worse > d.bound {
				verdict = "regressed"
				if spread(ma.Parts) > d.bound || spread(mb.Parts) > d.bound {
					verdict = "unresolved"
				}
				outside++
			}
			fmt.Fprintf(stdout, "%-12s %-20s %12.4f %12.4f %+8.1f%% %5.0f%%  %s\n",
				ra.Workload, d.name, ma.Value, mb.Value, 100*rel, 100*d.bound, verdict)
		}
	}
	return outside
}

// spread is the distance between the first and third quartile as a
// share of the median, quartiles as Python's statistics.quantiles(n=4)
// gives them (the rule the repository's driver applies across runs).
func spread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), median(s))
}
