// Command benchab runs the served-query benchmark (./benchmark) as an
// A/B experiment: the program at a git revision against the working
// tree, in alternating pairs, and prints per-metric medians with the
// revision's quartiles.
//
//	go run ./cmd/benchab -ref HEAD~1 -workloads "wide_result scan_join" -pairs 10
//	make benchmark-ab REF=HEAD~1 WORKLOADS="wide_result" PAIRS=10
//
// The revision is exported with `git archive` into a temporary
// directory (the repository's worktrees are untouched) and both sides
// are built with `go build ./benchmark`. Pair i runs both binaries on
// seed 101+i, the revision first on even pairs and the working tree first on
// odd ones, so slow drift of a shared machine falls on both sides. Each
// run is `-workload W -seed S -seconds N -trace T`; -trace 1 reports the
// per-layer metrics instead of the end-to-end ones.
//
// A row's verdict is "better" or "worse" when the working tree wins
// (loses) on at least nine in ten pairs and the medians differ by more
// than the revision's interquartile range; otherwise it is "-".
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// firstSeed is the benchmark seed of pair 0; pair i runs seed firstSeed+i.
const firstSeed = 101

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ref       = fs.String("ref", "HEAD", "git revision to compare the working tree against")
		workloads = fs.String("workloads", "point_hit plan_cold scan_join spill_join wide_result", "space-separated workload names")
		pairs     = fs.Int("pairs", 10, "alternating pairs per workload")
		seconds   = fs.Int("seconds", 15, "measured seconds per run")
		trace     = fs.Int("trace", 0, "0 compares end-to-end metrics, 1 per-layer metrics (traced runs)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pairs < 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "benchab: -pairs and -seconds must be positive")
		return 2
	}
	better, err := directions("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchab: %v (run from the repository root)\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		fmt.Fprintf(stderr, "benchab: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	bins, err := build(*ref, tmp, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchab: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "A/B: %s (ref) vs working tree (new); %d pairs x %d s, seeds %d-%d, trace %d\n",
		*ref, *pairs, *seconds, firstSeed, firstSeed+*pairs-1, *trace)
	for _, w := range strings.Fields(*workloads) {
		var runs [2][]map[string]float64 // [ref, new][pair]
		for i := 0; i < *pairs; i++ {
			s := firstSeed + i
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // even pairs run ref first
				args := []string{"-workload", w, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(*seconds),
					"-trace", fmt.Sprint(*trace), "-trace-out", filepath.Join(tmp, "out")}
				m, err := runOnce(bins[side], args)
				if err != nil {
					fmt.Fprintf(stderr, "benchab: %s %s seed %d: %v\n", []string{"ref", "new"}[side], w, s, err)
					return 1
				}
				runs[side] = append(runs[side], m)
				fmt.Fprintf(stderr, "benchab: %s pair %d/%d %s done\n", w, i+1, *pairs, []string{"ref", "new"}[side])
			}
		}
		printTable(stdout, w, runs[0], runs[1], better)
	}
	return 0
}

// directions reads each metric's better direction ("lower"/"higher")
// from the benchmark's declaration file.
func directions(path string) (map[string]string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]string{}
	for _, d := range append(decl.EndToEnd, decl.PerLayer...) {
		out[d.Name] = d.Better
	}
	return out, nil
}

// build exports ref with git archive and builds the benchmark there and
// in the working tree; it returns the binaries as [ref, new].
func build(ref, tmp string, stderr io.Writer) ([2]string, error) {
	src := filepath.Join(tmp, "ref")
	if err := os.MkdirAll(src, 0o755); err != nil {
		return [2]string{}, err
	}
	archive := exec.Command("git", "archive", "--format=tar", ref)
	untar := exec.Command("tar", "-x", "-C", src)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return [2]string{}, err
	}
	untar.Stdin, archive.Stderr, untar.Stderr = pipe, stderr, stderr
	if err := untar.Start(); err != nil {
		return [2]string{}, err
	}
	if err := archive.Run(); err != nil {
		return [2]string{}, fmt.Errorf("git archive %s: %w", ref, err)
	}
	if err := untar.Wait(); err != nil {
		return [2]string{}, fmt.Errorf("extract %s: %w", ref, err)
	}
	bins := [2]string{filepath.Join(tmp, "bench-ref"), filepath.Join(tmp, "bench-new")}
	for i, dir := range []string{src, "."} {
		cmd := exec.Command("go", "build", "-o", bins[i], "./benchmark")
		cmd.Dir, cmd.Stdout, cmd.Stderr = dir, stderr, stderr
		if err := cmd.Run(); err != nil {
			return [2]string{}, fmt.Errorf("build %s: %w", dir, err)
		}
	}
	return bins, nil
}

// runOnce runs one benchmark binary and decodes the single-run result
// it prints as its last line of output.
func runOnce(bin string, args []string) (map[string]float64, error) {
	var out bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	return parseResult(out.Bytes())
}

func parseResult(out []byte) (map[string]float64, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("decode result line %.80q: %w", last, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported wrong answers")
	}
	m := make(map[string]float64, len(res.Metrics))
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

// quantile is the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// row summarizes one metric over the pairs.
type row struct {
	name           string
	refMed, q1, q3 float64
	newMed, ratio  float64
	wins, pairs    int
	verdict        string
}

func summarize(name string, ref, cur []float64, better string) row {
	r := row{name: name, pairs: len(ref), verdict: "-"}
	losses := 0
	for i := range ref {
		switch d := cur[i] - ref[i]; {
		case d < 0 && better == "lower", d > 0 && better == "higher":
			r.wins++
		case d != 0:
			losses++
		}
	}
	sr, sc := append([]float64(nil), ref...), append([]float64(nil), cur...)
	sort.Float64s(sr)
	sort.Float64s(sc)
	r.refMed, r.q1, r.q3 = quantile(sr, 0.5), quantile(sr, 0.25), quantile(sr, 0.75)
	r.newMed = quantile(sc, 0.5)
	if r.refMed != 0 {
		r.ratio = r.newMed / r.refMed
	}
	apart := r.newMed-r.refMed > r.q3-r.q1 || r.refMed-r.newMed > r.q3-r.q1
	switch {
	case better == "" || !apart:
	case 10*r.wins >= 9*r.pairs:
		r.verdict = "better"
	case 10*losses >= 9*r.pairs:
		r.verdict = "worse"
	}
	return r
}

func printTable(w io.Writer, workload string, ref, cur []map[string]float64, better map[string]string) {
	var names []string
	for name := range ref[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%s\n\n| metric | ref median | ref q1-q3 | new median | new/ref | new wins | verdict |\n|---|---:|---:|---:|---:|---:|---|\n", workload)
	for _, name := range names {
		rv, cv := make([]float64, len(ref)), make([]float64, len(cur))
		for i := range ref {
			rv[i], cv[i] = ref[i][name], cur[i][name]
		}
		r := summarize(name, rv, cv, better[name])
		fmt.Fprintf(w, "| %s | %.4g | %.4g-%.4g | %.4g | %.3f | %d/%d | %s |\n",
			r.name, r.refMed, r.q1, r.q3, r.newMed, r.ratio, r.wins, r.pairs, r.verdict)
	}
}
