package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pipefault/internal/mem"
	"pipefault/internal/state"
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

// TestMaxImagesBound: with more checkpoints than a single worker can hold,
// the golden sweep must block on the hand-off channel until the worker
// catches up — and the campaign must still complete and match a
// four-worker run.
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
		res, err := runCampaign(context.Background(), cfg, newMachine, nil, cycles, res, false)
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
		{"horizon-overflows-trace", func(c *Config) { c.Horizon = math.MaxInt }, "Horizon"},
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

// TestGoldenReuse: a checkpoint's golden run read out of a shared sweep —
// overlapping windows, a duplicate checkpoint, buffers resliced and grown
// past earlier windows, a window running past the halt — equals the
// golden run of a one-checkpoint sweep from the same checkpoint.
func TestGoldenReuse(t *testing.T) {
	cfg := stealTestConfig()
	cfg.Horizon = 1500 // two or three keyframes per window
	newMachine, _, total := campaignFixture(t, &cfg)
	// The workload halts 200 cycles into the last window, so its trace
	// holds stamps no earlier window's does.
	c := total / 3
	cycles := []uint64{c, c + 300, c + 300, c + 900, total - 200}
	if !slices.IsSorted(cycles) {
		t.Fatalf("fixture schedule %v is not sorted", cycles)
	}
	wins := sweepWindows(cfg, newMachine(), cycles, nil)
	if len(wins) != len(cycles) {
		t.Fatalf("sweep handed %d windows for %d checkpoints", len(wins), len(cycles))
	}
	g := &wins[0].g
	if g.nKf < 2 {
		t.Fatalf("fixture needs a golden run with keyframes: keyframes=%d", g.nKf)
	}
	for i, w := range wins {
		m := newMachine()
		walkTo(m, cycles[i])
		ref := sweepWindows(cfg, m, cycles[i:i+1], nil)[0]
		goldenRunsEqual(t, fmt.Sprintf("checkpoint %d", i), &w.g, &ref.g)
	}
}

// sweepWindows runs the golden sweep from m over cycles and returns every
// window it hands out, in order.
func sweepWindows(cfg Config, m *uarch.Machine, cycles []uint64, skip []bool) []*ckWindow {
	var wins []*ckWindow
	runSweep(context.Background(), cfg, m, cycles, skip, nil, func(w *ckWindow) bool {
		wins = append(wins, w)
		return true
	})
	return wins
}

// goldenRunsEqual fails unless got and want are the same golden run in
// everything a trial or the prover reads: per-cycle digests, flags and
// retirement counts, the events, the monitor replays, every touch-trace
// record, and the state and memory digest at every keyframe.
func goldenRunsEqual(t *testing.T, name string, got, want *goldenRun) {
	t.Helper()
	if got.start != want.start || got.n != want.n {
		t.Fatalf("%s: start %d, %d cycles; want %d, %d", name, got.start, got.n, want.start, want.n)
	}
	for c := 1; c <= want.n; c++ {
		if got.digest(c) != want.digest(c) || got.cycle(c).flags != want.cycle(c).flags || got.evCount(c) != want.evCount(c) {
			t.Fatalf("%s: cycle %d differs", name, c)
		}
	}
	if got.nEv != want.nEv {
		t.Fatalf("%s: %d events, want %d", name, got.nEv, want.nEv)
	}
	for i := 0; i < want.nEv; i++ {
		if *got.event(i) != *want.event(i) {
			t.Fatalf("%s: event %d differs", name, i)
		}
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"excAt", got.excAt, want.excAt},
		{"excMode", got.excMode, want.excMode},
		{"failAt", got.failAt, want.failAt},
		{"failMode", got.failMode, want.failMode},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s: %s differs", name, f.name)
		}
	}
	if got.trace.Len() != want.trace.Len() {
		t.Fatalf("%s: trace covers %d entries, want %d", name, got.trace.Len(), want.trace.Len())
	}
	for k := uint64(0); k < uint64(want.trace.Len()); k++ {
		for _, get := range []func(*state.WindowTrace, uint64) uint64{
			(*state.WindowTrace).FirstRead, (*state.WindowTrace).FirstSet,
			(*state.WindowTrace).LastRead, (*state.WindowTrace).LastSet,
			(*state.WindowTrace).LastCopy, (*state.WindowTrace).CopyDst,
			(*state.WindowTrace).ObsPre,
		} {
			if get(got.trace, k) != get(want.trace, k) {
				t.Fatalf("%s: trace record %d differs", name, k)
			}
		}
	}
	if got.nKf != want.nKf {
		t.Fatalf("%s: %d keyframes, want %d", name, got.nKf, want.nKf)
	}
	var gs, ws state.Snapshot
	for a := want.start + 1; a <= want.start+uint64(want.n); a++ {
		gk, wk := got.keyframe(a), want.keyframe(a)
		if (gk == nil) != (wk == nil) || (a%convStride == 0) != (wk != nil) {
			t.Fatalf("%s: keyframe presence at cycle %d differs", name, a)
		}
		if wk == nil {
			continue
		}
		gk.delta.PatchInto(&gs, got.base)
		wk.delta.PatchInto(&ws, want.base)
		if gk.cyc != a || wk.cyc != a || gk.memDigest != wk.memDigest || !reflect.DeepEqual(gs, ws) {
			t.Errorf("%s: keyframe at cycle %d differs", name, a)
		}
	}
}

// sweepImages runs the golden sweep from m over cycles and returns every
// window, failing unless each checkpoint got one.
func sweepImages(t *testing.T, cfg Config, m *uarch.Machine, cycles []uint64) []*ckWindow {
	t.Helper()
	wins := sweepWindows(cfg, m, cycles, nil)
	if len(wins) != len(cycles) {
		t.Fatalf("sweep captured %d images for %d checkpoints", len(wins), len(cycles))
	}
	return wins
}

// imagesEqual fails unless got and want are the same checkpoint images:
// the state-file snapshot and its digest, Cycle, Retired, nextSeq and
// every seq shadow, and the memory image's digest, page count and
// contents (compared restored: page copies carry the capturing memory's
// reference counts, which differ between sweeps).
func imagesEqual(t *testing.T, name string, newMachine func() *uarch.Machine, got, want []*ckWindow) {
	t.Helper()
	gm, wm := newMachine(), newMachine()
	for i := range want {
		g, w := got[i], want[i]
		gm.RestoreCheckpoint(&g.snap, g.mem, nil)
		wm.RestoreCheckpoint(&w.snap, w.mem, nil)
		if gm.Cycle != wm.Cycle || gm.Retired != wm.Retired || gm.Digest() != wm.Digest() {
			t.Errorf("%s checkpoint %d: cycle %d retired %d digest %#x, want %d %d %#x",
				name, i, gm.Cycle, gm.Retired, gm.Digest(), wm.Cycle, wm.Retired, wm.Digest())
		}
		// The images hold the state file as deltas against different bases;
		// whole snapshots of the restored machines compare it directly.
		if !reflect.DeepEqual(gm.Snapshot(), wm.Snapshot()) {
			t.Errorf("%s checkpoint %d: snapshot (state file or seq shadows) differs", name, i)
		}
		if g.mem.Digest() != w.mem.Digest() || g.mem.PageCount() != w.mem.PageCount() || !gm.Mem.Equal(wm.Mem) {
			t.Errorf("%s checkpoint %d: memory image differs", name, i)
		}
	}
}

// TestPilotWarmStartMatchesReset: the golden sweep starts from the
// measurement pass's clone at the warm-up instead of walking from reset,
// and must capture exactly the images a walk from reset captures. A schedule that
// opens before the warm-up falls back to reset, and a workload that halts
// before the warm-up takes no clone and still runs.
func TestPilotWarmStartMatchesReset(t *testing.T) {
	t.Run("gzip", func(t *testing.T) {
		s, err := setupCampaign(Config{Workload: workload.Gzip, Checkpoints: 3, Seed: 4242, WarmupCycles: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		_, warm, cycles, err := s.schedule()
		if err != nil {
			t.Fatal(err)
		}
		if warm == nil || warm.Cycle != uint64(s.cfg.WarmupCycles) {
			t.Fatalf("measurement pass cloned no machine at the warm-up (%v)", warm)
		}
		// The fallback schedule opens before the warm-up; the reset walk
		// over it and the campaign schedule is the reference.
		early := []uint64{warm.Cycle - 1000}
		want := sweepImages(t, s.cfg, s.newMachine(), append(early, cycles...))

		fallback := walkStart(warm, s.newMachine, early)
		if fallback == warm || fallback.Cycle != 0 {
			t.Fatalf("schedule opening at %d started at cycle %d, want reset", early[0], fallback.Cycle)
		}
		sweepM := walkStart(warm, s.newMachine, cycles)
		if sweepM != warm {
			t.Fatal("sweep did not start from the warm-up clone")
		}
		imagesEqual(t, "fallback", s.newMachine, sweepImages(t, s.cfg, fallback, early), want[:1])
		imagesEqual(t, "warm", s.newMachine, sweepImages(t, s.cfg, sweepM, cycles), want[1:])
	})

	t.Run("halt-before-warmup", func(t *testing.T) {
		cfg := stealTestConfig()
		cfg.WarmupCycles = math.MaxInt32
		s, err := setupCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		meas, warm, cycles, err := s.schedule()
		if err != nil {
			t.Fatal(err)
		}
		if warm != nil {
			t.Fatalf("workload halted at cycle %d but a warm-up clone was taken", meas.Cycle)
		}
		if cycles[0] >= meas.Cycle {
			t.Fatalf("checkpoint %d past the halt at %d", cycles[0], meas.Cycle)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pop := range cfg.Populations {
			if got := len(res.Scatter[pop.Name]); got != cfg.Checkpoints {
				t.Errorf("%s: %d checkpoints aggregated, want %d", pop.Name, got, cfg.Checkpoints)
			}
		}
		cov, err := SurveyProofs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(cov) != cfg.Checkpoints {
			t.Errorf("survey covered %d checkpoints, want %d", len(cov), cfg.Checkpoints)
		}
	})
}
