// Command compare judges a change against its parent commit from paired
// benchmark runs:
//
//	go run ./bench/compare [-benchmark BENCHMARK.json] parent.jsonl change.jsonl
//
// Each input line is a record written by the benchmark's --record flag:
// {"workload", "seed", "trace", "result"}. Only untraced records count.
// For each workload and end-to-end metric in BENCHMARK.json, compare
// prints each side's median and quartiles, the change's wins over the
// parent among runs paired by seed, and a verdict:
//
//   - improved: the change wins at least 9 of every 10 pairs (ties count
//     for neither side) and its median beats the parent's by more than the
//     parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: not regressed, but the parent's own spread (IQR over
//     median) is wider than the bound, and not every change run beats
//     every parent run;
//   - no worse: otherwise.
//
// It exits 1 when any metric regressed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// runs maps workload -> metric -> seed -> value.
type runs map[string]map[string]map[int64]float64

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark description holding the metrics and their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-benchmark BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	raw, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "compare: reading benchmark description:", err)
		return 2
	}
	parent, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	change, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}

	regressed := false
	fmt.Fprintf(stdout, "%-20s %-14s %-32s %-32s %-7s %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "wins", "verdict")
	for _, w := range workloads(parent, change) {
		for _, m := range spec.EndToEnd {
			p, c := parent[w][m.Name], change[w][m.Name]
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(stdout, "%-20s %-14s missing on one side (%d parent, %d change runs)\n", w, m.Name, len(p), len(c))
				continue
			}
			v := judge(m, p, c)
			regressed = regressed || v.verdict == "regressed"
			fmt.Fprintf(stdout, "%-20s %-14s %-32s %-32s %-7s %s\n", w, m.Name,
				fmt.Sprintf("%.4g [%.4g %.4g]", v.parent[1], v.parent[0], v.parent[2]),
				fmt.Sprintf("%.4g [%.4g %.4g]", v.change[1], v.change[0], v.change[2]),
				fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func load(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]map[int64]float64{}
		}
		for name, m := range r.Result.Metrics {
			if out[r.Workload][name] == nil {
				out[r.Workload][name] = map[int64]float64{}
			}
			out[r.Workload][name][r.Seed] = m.Value
		}
	}
	return out, sc.Err()
}

func workloads(a, b runs) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range []runs{a, b} {
		for w := range r {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	sort.Strings(out)
	return out
}

type judgement struct {
	parent, change [3]float64 // q1, median, q3
	wins, pairs    int
	verdict        string
}

// judge applies the verdict rules to one metric's runs, keyed by seed.
func judge(m metricSpec, parent, change map[int64]float64) judgement {
	// better reports whether a beats b; gain is how far a beats b.
	better := func(a, b float64) bool { return a < b }
	gain := func(a, b float64) float64 { return b - a }
	if m.Better == "higher" {
		better = func(a, b float64) bool { return a > b }
		gain = func(a, b float64) float64 { return a - b }
	}
	var j judgement
	var pv, cv []float64
	for seed, p := range parent {
		pv = append(pv, p)
		if c, ok := change[seed]; ok {
			j.pairs++
			if better(c, p) {
				j.wins++
			}
		}
	}
	for _, c := range change {
		cv = append(cv, c)
	}
	j.parent, j.change = quartiles(pv), quartiles(cv)
	pMed, pIQR := j.parent[1], j.parent[2]-j.parent[0]
	g := gain(j.change[1], pMed)

	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case j.pairs > 0 && 10*j.wins >= 9*j.pairs && g > pIQR:
		j.verdict = "improved"
	case -g > m.Bound*pMed:
		j.verdict = "regressed"
	case pIQR > m.Bound*pMed && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "no worse"
	}
	return j
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// exclusive method), so they match the benchmark acceptance arithmetic.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
