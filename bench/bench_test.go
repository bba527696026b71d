package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyWorkload is a table entry small enough for tier-1 tests.
func tinyWorkload() *Workload {
	return &Workload{
		Name:        "tiny",
		Kernels:     []Kernel{{Name: "tiny"}},
		Model:       "transient",
		Checkpoints: 4,
		TargetCI:    0.08,
		TrialsHint:  24,
	}
}

// invoke runs the command in-process and returns its exit code, its
// standard output and its standard error.
func invoke(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// useTable makes ws the workload table run reads, until the test ends.
func useTable(t *testing.T, ws ...*Workload) {
	t.Helper()
	raw, err := json.Marshal(map[string]any{"workloads": ws})
	if err != nil {
		t.Fatal(err)
	}
	saved := defaultTable
	defaultTable = raw
	t.Cleanup(func() { defaultTable = saved })
}

// withReference measures tiny's reference rate through --reference and
// makes a table holding it the one run reads.
func withReference(t *testing.T) *Workload {
	t.Helper()
	w := tinyWorkload()
	useTable(t, w)
	code, out, errOut := invoke("--workload", "tiny", "--reference")
	if code != 0 {
		t.Fatalf("--reference exited %d:\n%s", code, errOut)
	}
	var ref struct{ Reference *Reference }
	if err := json.Unmarshal([]byte(out), &ref); err != nil || ref.Reference == nil {
		t.Fatalf("parsing the reference entry %q: %v", out, err)
	}
	w.Reference = ref.Reference
	useTable(t, w)
	return w
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts the result line holds exactly the named metrics,
// each with its unit.
func checkMetrics(t *testing.T, line string, want []struct{ Name, Unit string }) result {
	t.Helper()
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("last output line %q: %v", line, err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("result %+v: want correct with attempted >= 1", res)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not printed", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	return res
}

func TestEndToEndAndTracedRuns(t *testing.T) {
	spec := loadSpec(t)
	withReference(t)

	code, out, errOut := invoke("--workload", "tiny", "--seed", "3", "--seconds", "1")
	if code != 0 {
		t.Fatalf("end-to-end run exited %d:\n%s", code, errOut)
	}
	checkMetrics(t, lastLine(out), spec.EndToEnd)

	spans := filepath.Join(t.TempDir(), "spans.json")
	code, out, errOut = invoke("--workload", "tiny", "--seed", "3", "--trace", "1", "--spans", spans)
	if code != 0 {
		t.Fatalf("traced run exited %d:\n%s", code, errOut)
	}
	checkMetrics(t, lastLine(out), spec.PerLayer)

	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var f spanFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	byID := map[int]span{}
	for _, s := range f.Spans {
		byID[s.ID] = s
	}
	trials := 0
	for _, s := range f.Spans {
		if s.Name != "core.trial" {
			continue
		}
		trials++
		p, ok := byID[s.Parent]
		if !ok || p.Name != "core.Run" || p.Run != s.Run || s.Start < p.Start || s.End > p.End || s.Start > s.End {
			t.Fatalf("core.trial span %+v does not nest inside a core.Run span (parent %+v)", s, p)
		}
	}
	if trials == 0 {
		t.Fatal("no core.trial spans recorded")
	}
}

// TestShiftedReferenceFails moves the reference rate away from the one the
// campaign measures, in both directions. A reference of 0 stands for a
// build that lost every failure: the check compares |rate - reference|
// with the tolerance, so it catches that build exactly when the tolerance
// band around the reference excludes 0.
func TestShiftedReferenceFails(t *testing.T) {
	measured := withReference(t)
	for _, tc := range []struct {
		name  string
		shift func(rate float64) float64
	}{
		{"up", func(rate float64) float64 { return rate + 0.5 }},
		{"to zero", func(float64) float64 { return 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, ref := *measured, *measured.Reference
			ref.Rate = tc.shift(ref.Rate)
			w.Reference = &ref
			useTable(t, &w)
			code, out, errOut := invoke("--workload", "tiny", "--seed", "3", "--seconds", "1")
			if code == 0 {
				t.Fatalf("run against a reference moved to %.4f exited 0:\n%s", ref.Rate, errOut)
			}
			if !strings.Contains(errOut, "differs from the reference") {
				t.Errorf("stderr does not name the failed check:\n%s", errOut)
			}
			var res result
			if err := json.Unmarshal([]byte(lastLine(out)), &res); err != nil || res.Correct {
				t.Errorf("result line %q: want correct=false", lastLine(out))
			}
		})
	}
}

// TestToleranceReachingZeroFails checks that a campaign agreeing with the
// reference still fails when its tolerance is so wide that a rate of 0
// would have passed too.
func TestToleranceReachingZeroFails(t *testing.T) {
	for _, tc := range []struct {
		spread float64
		fails  bool
	}{{0.04, false}, {0.07, true}} {
		s := &session{w: &Workload{Name: "w", TargetCI: 0.02, Reference: &Reference{Rate: 0.1, CI: 0.04}}, log: io.Discard}
		c := &campaign{est: estimate{Rate: 0.1, CI: 0.01, Spread: tc.spread}}
		s.check([]*campaign{c}, c.est)
		if failed := len(s.problems) > 0; failed != tc.fails {
			t.Errorf("tolerance ±%.2f around reference 0.10: failed = %v (%q), want %v", tc.spread+0.04, failed, s.problems, tc.fails)
		}
	}
}
