package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartiles([]float64{2, 1}); got != [3]float64{0.75, 1.5, 2.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "time_to_ci_s", Better: "lower", Bound: 0.1}
	seq := func(base, step float64) map[int64]float64 {
		m := map[int64]float64{}
		for i := int64(0); i < 10; i++ {
			m[i] = base + step*float64(i)
		}
		return m
	}
	for _, tc := range []struct {
		name           string
		m              metricSpec
		parent, change map[int64]float64
		want           string
	}{
		{"faster everywhere", lower, seq(10, 0.01), seq(8, 0.01), "improved"},
		{"same", lower, seq(10, 0.01), seq(10, 0.01), "no worse"},
		{"slower beyond bound", lower, seq(10, 0.01), seq(12, 0.01), "regressed"},
		{"slower within bound", lower, seq(10, 0.01), seq(10.5, 0.01), "no worse"},
		{"parent too noisy", lower, seq(10, 0.5), seq(10, 0.5), "unresolved"},
		{"higher is better", metricSpec{Name: "x", Better: "higher", Bound: 0.1}, seq(10, 0.01), seq(8, 0.01), "regressed"},
	} {
		if got := judge(tc.m, tc.parent, tc.change).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := write("BENCHMARK.json", `{"end_to_end": [{"name": "time_to_ci_s", "unit": "s", "better": "lower", "bound": 0.1}]}`)
	line := func(seed int, v float64) string {
		return fmt.Sprintf(`{"workload": "w", "seed": %d, "trace": 0, "result": {"metrics": {"time_to_ci_s": {"value": %g, "unit": "s"}}}}`+"\n", seed, v)
	}
	parent := write("parent.jsonl", line(1, 10)+line(2, 10.2)+line(3, 9.9))
	change := write("change.jsonl", line(1, 13)+line(2, 13.1)+line(3, 12.8))
	var out, errOut bytes.Buffer
	if code := run([]string{"-benchmark", bench, parent, change}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1 for a regression; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Fatalf("output lacks the verdict:\n%s", out.String())
	}
}
