// Command pipebench measures the simulator's hot paths and emits a
// machine-readable summary for CI trend tracking and perf review.
//
// Usage:
//
//	pipebench [-o BENCH_pipeline.json] [-quick] [-workers N]
//	          [-baseline FILE] [-regress-pct P] [-soft]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// Four measurements are taken with testing.Benchmark:
//
//	pipeline_cycles    raw detailed-model stepping speed (cycles/sec)
//	campaign           end-to-end injection campaign (trials/sec, allocs/trial)
//	restore_snapshot   full-state Snapshot/Restore rewind (ns/restore)
//	restore_journal    undo-journal Mark/RollbackTo rewind of a 64-word
//	                   working set (ns/restore)
//
// Two further measurements time whole campaigns wall-clock:
//
//	scaling            the same campaign at 1, 2, 4 and NumCPU workers,
//	                   reporting per-count trials/sec and scaling_efficiency
//	early_stop         the campaign with early trial termination off
//	                   (full-horizon) and on (the default: dead-entry,
//	                   quiescence and re-convergence shortcuts), reporting
//	                   the mean actually-simulated cycles per trial for
//	                   each and early_stop_speedup (off vs on); the runs
//	                   double as an equivalence oracle — any result
//	                   mismatch fails the run (exit 1) even with -soft,
//	                   since that is a correctness bug, not runner noise
//	prove              proven_benign_fraction — the share of the injectable
//	                   population the static prover certifies benign — and
//	                   prove_speedup: the wall-clock of an equal-precision
//	                   full-population campaign (trials scaled by 1/(1-f))
//	                   divided by the prover campaign's
//
// With -baseline, the fresh headline metrics are compared against a
// previously committed report: a drop of more than -regress-pct percent in
// cycles_per_sec or trials_per_sec — or an equal rise in the lower-is-better
// step_ns_per_cycle — fails the run (exit 1), or emits a GitHub Actions
// warning annotation instead when -soft is set (for noisy shared runners).
//
// -cpuprofile/-memprofile bracket the measurement phase with runtime/pprof,
// for chasing a regression the gate reports down to the hot loop.
//
// The JSON written to -o holds the headline metrics plus the raw
// testing.BenchmarkResult fields for each measurement.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"pipefault/internal/core"
	"pipefault/internal/mem"
	"pipefault/internal/uarch"
	"pipefault/internal/workload"
)

type benchLine struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type scalingLine struct {
	Workers           int     `json:"workers"`
	WallSec           float64 `json:"wall_sec"`
	TrialsPerSec      float64 `json:"trials_per_sec"`
	SpeedupVs1W       float64 `json:"speedup_vs_1w"`
	ScalingEfficiency float64 `json:"scaling_efficiency"`
}

type metrics struct {
	CyclesPerSec       float64 `json:"cycles_per_sec"`
	StepNsPerCycle     float64 `json:"step_ns_per_cycle"`
	TrialsPerSec       float64 `json:"trials_per_sec"`
	NsRestoreSnapshot  float64 `json:"ns_per_restore_snapshot"`
	NsRestoreJournal   float64 `json:"ns_per_restore_journal"`
	AllocsPerTrial     float64 `json:"allocs_per_trial"`
	MeanCyclesPerTrial float64 `json:"mean_cycles_per_trial"`
	EarlyStopSpeedup   float64 `json:"early_stop_speedup"`
	ProvenFraction     float64 `json:"proven_benign_fraction"`
	ProveSpeedup       float64 `json:"prove_speedup"`
}

// earlyStopLine is one point on the termination-mode trajectory: how many
// cycles the mean trial actually simulates under each early-stop mode.
type earlyStopLine struct {
	Mode         string  `json:"mode"`
	MeanCycles   float64 `json:"mean_cycles_per_trial"`
	SpeedupVsOff float64 `json:"speedup_vs_off"`
}

type report struct {
	Suite   string `json:"suite"`
	Go      string `json:"go"`
	NumCPU  int    `json:"num_cpu"`
	Workers int    `json:"workers"`
	Quick   bool   `json:"quick"`
	// ScalingUnreliable marks the scaling sweep as meaningless: on a
	// single-CPU box every worker count collapses to ~1x, so the sweep is
	// skipped and consumers (the CI regression gate included) must ignore
	// the scaling section entirely.
	ScalingUnreliable bool            `json:"scaling_unreliable,omitempty"`
	Metrics           metrics         `json:"metrics"`
	Scaling           []scalingLine   `json:"scaling"`
	EarlyStop         []earlyStopLine `json:"early_stop"`
	Benchmarks        []benchLine     `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH_pipeline.json", "output JSON path (\"-\" for stdout)")
	quick := flag.Bool("quick", false, "reduced scale for CI smoke runs")
	workers := flag.Int("workers", runtime.NumCPU(), "campaign worker goroutines")
	baseline := flag.String("baseline", "", "baseline report to compare headline metrics against")
	regressPct := flag.Float64("regress-pct", 25, "max tolerated % drop vs -baseline in cycles_per_sec / trials_per_sec")
	soft := flag.Bool("soft", false, "report a baseline regression as a GitHub warning annotation instead of exit 1")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measurement run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file after the measurements")
	flag.Parse()

	// Profiling brackets the measurement phase only: the profile stops
	// before report writing and the baseline gate, so a gate failure still
	// leaves a complete profile behind for the regression hunt.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}

	rep := &report{
		Suite:   "pipeline",
		Go:      runtime.Version(),
		NumCPU:  runtime.NumCPU(),
		Workers: *workers,
		Quick:   *quick,
	}
	record := func(name string, r testing.BenchmarkResult) testing.BenchmarkResult {
		rep.Benchmarks = append(rep.Benchmarks, benchLine{
			Name:        name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Fprintf(os.Stderr, "pipebench: %-18s %12.1f ns/op  (n=%d)\n",
			name, float64(r.T.Nanoseconds())/float64(r.N), r.N)
		return r
	}

	// Raw pipeline stepping speed.
	w := workload.Gzip
	prog, err := w.Program()
	if err != nil {
		fatal(err)
	}
	ref, err := w.ComputeReference()
	if err != nil {
		fatal(err)
	}
	newMachine := func() *uarch.Machine {
		mm := mem.New()
		regs := prog.Load(mm)
		return uarch.NewOnMemory(uarch.Config{}, mm, ref.Legal, prog.Entry, regs)
	}
	m := newMachine()
	step := record("pipeline_cycles", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if m.Halted() {
				b.StopTimer()
				m = newMachine()
				b.StartTimer()
			}
			m.Step()
		}
	}))
	rep.Metrics.CyclesPerSec = opsPerSec(step)
	rep.Metrics.StepNsPerCycle = nsPerOp(step)

	// End-to-end campaign: trials/sec and allocs/trial.
	cfg := core.Config{
		Workload:    workload.Gzip,
		Checkpoints: 8,
		Populations: []core.Population{{Name: "l+r", Trials: 24}},
		Workers:     *workers,
		Seed:        4242,
	}
	if *quick {
		cfg.Workload = workload.Tiny
		cfg.Checkpoints = 2
		cfg.Populations = []core.Population{{Name: "l+r", Trials: 6}}
	}
	trialsPerOp := 0
	camp := record("campaign", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			trialsPerOp = res.Pops["l+r"].Total()
		}
	}))
	if trialsPerOp > 0 {
		rep.Metrics.TrialsPerSec = opsPerSec(camp) * float64(trialsPerOp)
		rep.Metrics.AllocsPerTrial = float64(camp.AllocsPerOp()) / float64(trialsPerOp)
	}

	// Worker-count scaling sweep: the same campaign wall-clocked at 1, 2, 4
	// and NumCPU workers. scaling_efficiency = speedup / workers. On a
	// single-CPU box every count collapses to ~1× and the ratios are pure
	// scheduler noise, so the sweep is skipped and the report is tagged
	// scaling_unreliable — the CI regression gate ignores the scaling
	// section on tagged reports (it only ever compares cycles_per_sec and
	// trials_per_sec, which stay meaningful).
	campaignWall := func(c core.Config) (float64, int) {
		start := time.Now()
		res, err := core.Run(c)
		if err != nil {
			fatal(err)
		}
		return time.Since(start).Seconds(), res.Pops["l+r"].Total()
	}
	if runtime.NumCPU() == 1 {
		rep.ScalingUnreliable = true
		fmt.Fprintln(os.Stderr, "pipebench: single CPU; skipping worker-scaling sweep (scaling_unreliable)")
	}
	var base float64
	for _, nw := range scalingCounts() {
		if rep.ScalingUnreliable && nw != 1 {
			continue
		}
		c := cfg
		c.Workers = nw
		wall, trials := campaignWall(c)
		if base == 0 {
			base = wall
		}
		speedup := base / wall
		rep.Scaling = append(rep.Scaling, scalingLine{
			Workers:           nw,
			WallSec:           wall,
			TrialsPerSec:      float64(trials) / wall,
			SpeedupVs1W:       speedup,
			ScalingEfficiency: speedup / float64(nw),
		})
		fmt.Fprintf(os.Stderr, "pipebench: scaling %2d workers  %7.2fs  speedup %.2fx  efficiency %.2f\n",
			nw, wall, speedup, speedup/float64(nw))
	}

	// Early-stop effectiveness, and the equivalence oracle. The same
	// campaign runs with early termination off (the full-horizon loop) and
	// on (the default), counting actually-simulated cycles per trial. Both
	// results must be bit-identical; a mismatch is a correctness bug in the
	// early-stop machinery, so it hard-fails the run even with -soft — that
	// flag only pardons throughput noise.
	earlyStopRun := func(mode core.EarlyStopMode) (*core.Result, float64) {
		var steps, trials atomic.Int64
		c := cfg
		c.EarlyStop = mode
		c.OnTrialResolved = func(_ core.ResolveKind, s int) {
			steps.Add(int64(s))
			trials.Add(1)
		}
		res, err := core.Run(c)
		if err != nil {
			fatal(err)
		}
		if trials.Load() == 0 {
			return res, 0
		}
		return res, float64(steps.Load()) / float64(trials.Load())
	}
	fullRes, meanOff := earlyStopRun(core.EarlyStopOff)
	earlyRes, meanOn := earlyStopRun(core.EarlyStopOn)
	if !reflect.DeepEqual(earlyRes.Pops, fullRes.Pops) ||
		!reflect.DeepEqual(earlyRes.Scatter, fullRes.Scatter) {
		fmt.Fprintln(os.Stderr, "pipebench: EQUIVALENCE ORACLE MISMATCH: the early-stopped campaign"+
			" differs from the full-horizon campaign; early stopping changed trial outcomes")
		os.Exit(1)
	}
	onLine := earlyStopLine{Mode: core.EarlyStopOn.String(), MeanCycles: meanOn}
	rep.Metrics.MeanCyclesPerTrial = meanOn
	if meanOn > 0 {
		onLine.SpeedupVsOff = meanOff / meanOn
		rep.Metrics.EarlyStopSpeedup = onLine.SpeedupVsOff
	}
	rep.EarlyStop = []earlyStopLine{{Mode: core.EarlyStopOff.String(), MeanCycles: meanOff, SpeedupVsOff: 1}, onLine}
	fmt.Fprintf(os.Stderr, "pipebench: early_stop         %.1f on / %.1f full-horizon cycles/trial = %.1fx\n",
		meanOn, meanOff, rep.Metrics.EarlyStopSpeedup)

	// Prover effectiveness. The static prover does not shorten individual
	// trials — it removes the proven-benign mass from the sampled
	// population and re-weights analytically, so each sampled trial is an
	// informative one. A full-population campaign wastes a fraction f of
	// its samples re-discovering proven outcomes; to match the prover
	// campaign's count of informative trials it must scale its trial
	// budget by 1/(1-f). prove_speedup is that equal-precision full
	// campaign's wall-clock divided by the prover campaign's, each the
	// best of two runs: a min discards one-sided scheduler/GC noise, which
	// a single sample of a ratio of wall-clocks amplifies. The trial
	// budget is tripled for this measurement so per-checkpoint fixed
	// costs (pilot, golden continuations) — paid identically by both
	// modes — do not wash out the per-trial difference. Under the
	// default early stop the liveness-proven draws were already
	// resolved closed-form at near-zero cost, so this ratio is expected
	// to sit near 1; it grows with the non-liveness rules' coverage and
	// whenever early stop is off (oracle and -race runs), where every
	// avoided draw is a full-horizon simulation.
	proveTrials := 3 * cfg.Populations[0].Trials
	proveOnce := func(c core.Config) (*core.Result, float64) {
		start := time.Now()
		res, err := core.Run(c)
		if err != nil {
			fatal(err)
		}
		return res, time.Since(start).Seconds()
	}
	proveWall := func(mode core.ProveMode, trials int) (*core.Result, float64) {
		c := cfg
		c.Prove = mode
		c.Populations = []core.Population{{Name: "l+r", Trials: trials}}
		res, wall := proveOnce(c)
		if _, again := proveOnce(c); again < wall {
			wall = again
		}
		return res, wall
	}
	onRes, onWall := proveWall(core.ProveOn, proveTrials)
	frac := onRes.Pops["l+r"].ProvenFraction()
	rep.Metrics.ProvenFraction = frac
	if frac > 0 && frac < 1 {
		scaled := int(float64(proveTrials)/(1-frac) + 0.5)
		_, offWall := proveWall(core.ProveOff, scaled)
		if onWall > 0 {
			rep.Metrics.ProveSpeedup = offWall / onWall
		}
		fmt.Fprintf(os.Stderr, "pipebench: prove              %.1f%% proven; off needs %d trials for %d informative: %.2fs / %.2fs = %.2fx\n",
			100*frac, scaled, proveTrials, offWall, onWall, rep.Metrics.ProveSpeedup)
	} else {
		fmt.Fprintf(os.Stderr, "pipebench: prove              proven fraction %.3f; speedup not measured\n", frac)
	}

	// Rewind mechanisms, measured on a warmed machine. The snapshot path
	// copies the whole bit-store; the journal path rolls back a 64-word
	// dirty set, the shape of a short trial.
	m = newMachine()
	for i := 0; i < 2000 && !m.Halted(); i++ {
		m.Step()
	}
	snap := m.Snapshot()
	snapRes := record("restore_snapshot", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Restore(snap)
		}
	}))
	rep.Metrics.NsRestoreSnapshot = nsPerOp(snapRes)

	prf := m.F.Elem("prf.value")
	m.BeginJournal()
	var mp uarch.MarkPoint
	jRes := record("restore_journal", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Mark(&mp)
			for k := 0; k < 64; k++ {
				prf.Set(k, uint64(i+k))
			}
			m.RollbackTo(&mp)
		}
	}))
	m.CommitJournal()
	rep.Metrics.NsRestoreJournal = nsPerOp(jRes)

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pipebench: wrote %s\n", *out)
	}

	if *baseline != "" {
		if err := checkBaseline(*baseline, rep, *regressPct, *soft); err != nil {
			fatal(err)
		}
	}
}

// scalingCounts returns the deduplicated, ascending worker counts for the
// scaling sweep: 1, 2, 4 and NumCPU.
func scalingCounts() []int {
	counts := []int{1, 2, 4}
	ncpu := runtime.NumCPU()
	seen := map[int]bool{}
	var out []int
	for _, n := range append(counts, ncpu) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// checkBaseline compares the fresh headline throughput metrics against a
// committed baseline report and flags regressions beyond pct percent.
func checkBaseline(path string, fresh *report, pct float64, soft bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if base.Quick != fresh.Quick {
		fmt.Fprintf(os.Stderr, "pipebench: baseline %s is quick=%v but this run is quick=%v; skipping comparison\n",
			path, base.Quick, fresh.Quick)
		return nil
	}
	var regressions []string
	check := func(name string, baseV, freshV float64) {
		if baseV <= 0 {
			return
		}
		drop := 100 * (baseV - freshV) / baseV
		fmt.Fprintf(os.Stderr, "pipebench: baseline %-15s %12.1f -> %12.1f  (%+.1f%%)\n",
			name, baseV, freshV, -drop)
		if drop > pct {
			regressions = append(regressions,
				fmt.Sprintf("%s regressed %.1f%% (%.1f -> %.1f, tolerance %.0f%%)",
					name, drop, baseV, freshV, pct))
		}
	}
	// step_ns_per_cycle is a lower-is-better metric: a regression is a RISE
	// beyond pct percent. Baselines written before the metric existed carry
	// a zero and are skipped.
	checkLower := func(name string, baseV, freshV float64) {
		if baseV <= 0 {
			return
		}
		rise := 100 * (freshV - baseV) / baseV
		fmt.Fprintf(os.Stderr, "pipebench: baseline %-15s %12.1f -> %12.1f  (%+.1f%%)\n",
			name, baseV, freshV, rise)
		if rise > pct {
			regressions = append(regressions,
				fmt.Sprintf("%s regressed %.1f%% (%.1f -> %.1f, tolerance %.0f%%)",
					name, rise, baseV, freshV, pct))
		}
	}
	check("cycles_per_sec", base.Metrics.CyclesPerSec, fresh.Metrics.CyclesPerSec)
	checkLower("step_ns_per_cycle", base.Metrics.StepNsPerCycle, fresh.Metrics.StepNsPerCycle)
	check("trials_per_sec", base.Metrics.TrialsPerSec, fresh.Metrics.TrialsPerSec)
	if len(regressions) == 0 {
		fmt.Fprintf(os.Stderr, "pipebench: no regression beyond %.0f%% vs %s\n", pct, path)
		return nil
	}
	for _, r := range regressions {
		if soft {
			fmt.Printf("::warning title=pipebench regression::%s\n", r)
		} else {
			fmt.Fprintln(os.Stderr, "pipebench: REGRESSION:", r)
		}
	}
	if soft {
		return nil
	}
	os.Exit(1)
	return nil
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func opsPerSec(r testing.BenchmarkResult) float64 {
	ns := nsPerOp(r)
	if ns == 0 {
		return 0
	}
	return 1e9 / ns
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipebench:", err)
	os.Exit(1)
}
