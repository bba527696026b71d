package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pipefault/internal/mem"
	"pipefault/internal/uarch"
	"pipefault/internal/workload"
)

// stealTestConfig is the small campaign used by the scheduler tests.
func stealTestConfig() Config {
	return Config{
		Workload:    workload.Tiny,
		Checkpoints: 3,
		Horizon:     600,
		Populations: []Population{
			{Name: "l+r", Trials: 5},
			{Name: "l", LatchOnly: true, Trials: 3},
		},
		Seed: 23,
	}
}

// resultsEqual compares the deterministic parts of two campaign results.
func resultsEqual(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if a.TotalCycles != b.TotalCycles || a.IPC != b.IPC {
		t.Errorf("%s: golden measurements differ", name)
	}
	if !reflect.DeepEqual(a.Pops, b.Pops) {
		t.Errorf("%s: trial lists differ", name)
	}
	if !reflect.DeepEqual(a.Scatter, b.Scatter) {
		t.Errorf("%s: scatter points differ", name)
	}
}

// TestMaxImagesBound: with more checkpoints than the 2*Workers+2 images a
// single worker's campaign keeps resident, the pilot must block on the
// image channel until the worker catches up — and the campaign must still
// complete and match a four-worker run.
func TestMaxImagesBound(t *testing.T) {
	cfg := stealTestConfig()
	cfg.Checkpoints = 8
	cfg.Workers = 4
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "w1-vs-w4", base, serial)
	for _, pop := range cfg.Populations {
		if got := len(serial.Scatter[pop.Name]); got != cfg.Checkpoints {
			t.Errorf("%s: %d checkpoints aggregated, want %d", pop.Name, got, cfg.Checkpoints)
		}
	}
}

// campaignFixture replays Run's prologue (measurement pass and result
// skeleton) so tests can drive runCampaign with synthetic checkpoint
// schedules. It returns the workload's golden end-to-end cycle count.
func campaignFixture(t *testing.T, cfg *Config) (func() *uarch.Machine, *Result, uint64) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.setDefaults()
	prog, err := cfg.Workload.Program()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cfg.Workload.ComputeReference()
	if err != nil {
		t.Fatal(err)
	}
	ucfg := uarch.Config{Protect: cfg.Protect, Recovery: cfg.Recovery}
	newMachine := func() *uarch.Machine {
		mm := mem.New()
		regs := prog.Load(mm)
		return uarch.NewOnMemory(ucfg, mm, ref.Legal, prog.Entry, regs)
	}
	meas := newMachine()
	meas.Run(maxMeasureCycles)
	if !meas.Halted() {
		t.Fatalf("%s did not halt", cfg.Workload.Name)
	}
	res := &Result{
		Benchmark: cfg.Workload.Name,
		Pops:      make(map[string]*PopResult),
		Scatter:   make(map[string][]ScatterPoint),
	}
	for _, p := range cfg.Populations {
		res.Pops[p.Name] = &PopResult{Name: p.Name}
	}
	return newMachine, res, meas.Cycle
}

// TestHaltBeforeLastCheckpoint: a checkpoint scheduled past the machine's
// architectural halt must be skipped — not deadlock the pool, not produce
// partial trials — at any worker count, and the reachable checkpoint must
// agree between a serial and a parallel pool.
func TestHaltBeforeLastCheckpoint(t *testing.T) {
	run := func(workers int) *Result {
		cfg := stealTestConfig()
		cfg.Workers = workers
		newMachine, res, total := campaignFixture(t, &cfg)
		// One reachable checkpoint, two scheduled after the halt.
		cycles := []uint64{total / 3, total + 1000, total + 2000}
		cfg.Checkpoints = len(cycles)
		res, err := runCampaign(context.Background(), cfg, newMachine, cycles, uint64(cfg.Horizon+2000), res, false)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	serial := run(1)
	parallel := run(4)

	wantTrials := map[string]int{"l+r": 5, "l": 3}                            // one reachable checkpoint's worth
	for name, res := range map[string]*Result{"w1": serial, "w4": parallel} { //pipelint:unordered-ok per-run assertions are independent
		for pop, want := range wantTrials {
			if got := res.Pops[pop].Total(); got != want {
				t.Errorf("%s %s: %d trials, want %d (only checkpoint 0 is reachable)", name, pop, got, want)
			}
			if len(res.Scatter[pop]) != 1 {
				t.Errorf("%s %s: %d scatter points, want 1", name, pop, len(res.Scatter[pop]))
			}
		}
	}
	if !reflect.DeepEqual(serial.Pops, parallel.Pops) || !reflect.DeepEqual(serial.Scatter, parallel.Scatter) {
		t.Error("Workers 1 and 4 disagree on the reachable prefix")
	}
}

// TestHorizonExceedsGoldenRun: a trial horizon longer than the golden-run
// horizon must be rejected loudly at campaign start, not panic indexing
// past the digest array mid-trial.
func TestHorizonExceedsGoldenRun(t *testing.T) {
	cfg := stealTestConfig()
	newMachine, res, total := campaignFixture(t, &cfg)
	_, err := runCampaign(context.Background(), cfg, newMachine, []uint64{total / 3}, uint64(cfg.Horizon-1), res, false)
	if err == nil {
		t.Fatal("runCampaign accepted a golden-run horizon shorter than the trial horizon")
	}
	if !strings.Contains(err.Error(), "horizon") {
		t.Errorf("error does not name the horizon contract: %v", err)
	}
}

// TestConfigValidate: misconfigurations must fail loudly at startup with
// descriptive errors, not obscurely mid-campaign.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		errPart string
	}{
		{"no-workload", func(c *Config) { c.Workload = nil }, "workload"},
		{"negative-checkpoints", func(c *Config) { c.Checkpoints = -1 }, "Checkpoints"},
		{"negative-horizon", func(c *Config) { c.Horizon = -5 }, "Horizon"},
		{"negative-warmup", func(c *Config) { c.WarmupCycles = -1 }, "WarmupCycles"},
		{"bad-earlystop", func(c *Config) { c.EarlyStop = EarlyStopMode(77) }, "early-stop"},
		{"empty-pop-name", func(c *Config) { c.Populations[0].Name = "" }, "name"},
		{"dup-pop-name", func(c *Config) { c.Populations[1].Name = "l+r" }, "duplicate"},
		{"negative-trials", func(c *Config) { c.Populations[0].Trials = -4 }, "Trials"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := stealTestConfig()
			tc.mutate(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("Run accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}
}

// TestOnProgress: the progress callback must observe monotonically
// non-decreasing counts ending at the campaign totals, and wiring it up
// must not perturb the Result.
func TestOnProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := stealTestConfig()
		cfg.Workers = workers
		base, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		var snaps []Progress
		cfg.OnProgress = func(p Progress) { snaps = append(snaps, p) }
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, fmt.Sprintf("progress-w%d", workers), base, res)

		if len(snaps) == 0 {
			t.Fatalf("w%d: no progress callbacks", workers)
		}
		var prev Progress
		for i, p := range snaps {
			if p.TrialsDone < prev.TrialsDone || p.CheckpointsDone < prev.CheckpointsDone {
				t.Fatalf("w%d: progress regressed at callback %d: %+v after %+v", workers, i, p, prev)
			}
			prev = p
		}
		final := snaps[len(snaps)-1]
		if final.CheckpointsDone != 3 || final.TrialsDone != 3*8 {
			t.Errorf("w%d: final progress %+v, want 3 checkpoints and 24 trials", workers, final)
		}
		if final.Checkpoints != 3 || final.Trials != 24 {
			t.Errorf("w%d: totals %+v, want Checkpoints=3 Trials=24", workers, final)
		}
	}
}
