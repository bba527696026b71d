package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pipefault/internal/workload"
)

// TestParallelSerialEquivalence is the determinism contract of the
// campaign engine: with the same seed, Workers:1 and Workers:4 must produce
// bit-identical results — same trial lists per population, same scatter
// points, same golden measurements.
func TestParallelSerialEquivalence(t *testing.T) {
	run := func(workers int) *Result {
		res, err := Run(Config{
			Workload:    workload.Gap,
			Checkpoints: 5,
			Populations: []Population{
				{Name: "l+r", Trials: 6},
				{Name: "l", LatchOnly: true, Trials: 4},
			},
			Workers: workers,
			Seed:    11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(4)

	if serial.TotalCycles != parallel.TotalCycles || serial.IPC != parallel.IPC {
		t.Errorf("golden measurements differ: %d/%.4f vs %d/%.4f",
			serial.TotalCycles, serial.IPC, parallel.TotalCycles, parallel.IPC)
	}
	for _, pop := range []string{"l+r", "l"} {
		st, pt := serial.Pops[pop].Trials, parallel.Pops[pop].Trials
		if len(st) != len(pt) {
			t.Fatalf("%s: trial counts differ: %d vs %d", pop, len(st), len(pt))
		}
		for i := range st {
			if st[i] != pt[i] {
				t.Errorf("%s: trial %d differs: %+v vs %+v", pop, i, st[i], pt[i])
			}
		}
		if !reflect.DeepEqual(serial.Scatter[pop], parallel.Scatter[pop]) {
			t.Errorf("%s: scatter points differ:\n serial   %+v\n parallel %+v",
				pop, serial.Scatter[pop], parallel.Scatter[pop])
		}
	}
}

// TestWorkersExceedCheckpoints: more workers than checkpoints must not
// deadlock or duplicate work.
func TestWorkersExceedCheckpoints(t *testing.T) {
	res, err := Run(Config{
		Workload:    workload.Tiny,
		Checkpoints: 2,
		Horizon:     800,
		Populations: []Population{{Name: "l+r", Trials: 3}},
		Workers:     16,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Pops["l+r"].Total(); got != 6 {
		t.Errorf("trials = %d, want 6", got)
	}
}

// TestZeroTrialResultString: a population with zero trials must render
// cleanly, not as NaN percentages.
func TestZeroTrialResultString(t *testing.T) {
	res := &Result{
		Benchmark: "empty",
		Pops: map[string]*PopResult{
			"l+r": {Name: "l+r"},
		},
	}
	s := res.String()
	if strings.Contains(s, "NaN") {
		t.Errorf("String() renders NaN: %q", s)
	}
	if !strings.Contains(s, "0 trials") {
		t.Errorf("String() does not report the empty population: %q", s)
	}
	if res.Pops["l+r"].FailureRate() != 0 || res.Pops["l+r"].MaskRate() != 0 {
		t.Error("zero-trial rates must be 0")
	}
}

// TestMergeMixedProtection: merging protected and unprotected results must
// be flagged (Merge) or rejected (MergeStrict), and the golden measurements
// must be carried instead of dropped to zero.
func TestMergeMixedProtection(t *testing.T) {
	a := &Result{Benchmark: "a", Protected: false, TotalCycles: 1000, IPC: 2.0,
		Pops: map[string]*PopResult{"l+r": {Name: "l+r", Trials: []Trial{{Outcome: OutMatch}}}}}
	b := &Result{Benchmark: "b", Protected: true, TotalCycles: 3000, IPC: 1.0,
		Pops: map[string]*PopResult{"l+r": {Name: "l+r", Trials: []Trial{{Outcome: OutSDC}}}}}

	agg := Merge("avg", []*Result{a, b})
	if !agg.MixedProtection {
		t.Error("Merge did not flag mixed protection")
	}
	if agg.Protected != a.Protected {
		t.Errorf("Protected = %v, want first input's %v", agg.Protected, a.Protected)
	}
	if agg.TotalCycles != 4000 {
		t.Errorf("TotalCycles = %d, want 4000", agg.TotalCycles)
	}
	// Cycle-weighted IPC: (2.0*1000 + 1.0*3000) / 4000.
	if want := 1.25; agg.IPC != want {
		t.Errorf("IPC = %v, want %v", agg.IPC, want)
	}
	if agg.Pops["l+r"].Total() != 2 {
		t.Errorf("merged trials = %d, want 2", agg.Pops["l+r"].Total())
	}

	if _, err := MergeStrict("avg", []*Result{a, b}); err == nil {
		t.Error("MergeStrict accepted mixed protection")
	}
	same, err := MergeStrict("avg", []*Result{a, a})
	if err != nil {
		t.Errorf("MergeStrict rejected uniform protection: %v", err)
	}
	if same.MixedProtection {
		t.Error("uniform merge flagged as mixed")
	}
}

// TestSoftZeroTargets: every fault model must return a descriptive error,
// not an Int63n panic, when its target population is empty.
func TestSoftZeroTargets(t *testing.T) {
	en := &SoftEngine{w: workload.Tiny, ref: &workload.Reference{}}
	for _, model := range SoftModels() {
		if _, err := en.RunModel(model, 1, 1); err == nil {
			t.Errorf("%s: no error on empty target population", model)
		}
	}
}

// TestYBranchZeroCondBrs: a trial on an engine with no conditional branches
// must error rather than panic.
func TestYBranchZeroCondBrs(t *testing.T) {
	en := &SoftEngine{w: workload.Tiny, ref: &workload.Reference{}}
	rng := rand.New(rand.NewSource(1))
	if err := en.yTrial(rng, &YBranchResult{}); err == nil {
		t.Error("yTrial accepted an empty branch population")
	}
}
