// Command pipebench measures the simulator's hot paths and emits a
// machine-readable summary for CI trend tracking and perf review.
//
// Usage:
//
//	pipebench [-o BENCH_pipeline.json] [-quick] [-workers N]
//	          [-baseline FILE] [-regress-pct P] [-soft]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// Three measurements are taken with testing.Benchmark:
//
//	pipeline_cycles    raw detailed-model stepping speed (cycles/sec)
//	campaign           end-to-end injection campaign (trials/sec, allocs/trial)
//	restore_journal    undo-journal Mark/RollbackTo rewind of a 64-word
//	                   working set (ns/restore)
//
// One further measurement runs the campaign twice more:
//
//	early_stop         the campaign with early trial termination off
//	                   (full-horizon) and on (the default: dead-entry
//	                   and re-convergence shortcuts), reporting
//	                   the mean actually-simulated cycles per trial for
//	                   each and early_stop_speedup (off vs on), plus
//	                   proven_benign_fraction — the share of the
//	                   injectable population the static prover certifies
//	                   benign — from the default run. That the two runs
//	                   classify identically is checked by
//	                   TestConvergeEquivalenceGzip in internal/core, not
//	                   here.
//
// Time to a target precision, end to end and per layer, is measured by
// the repository benchmark (bench/), not by pipebench.
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
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"testing"

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

type metrics struct {
	CyclesPerSec       float64 `json:"cycles_per_sec"`
	StepNsPerCycle     float64 `json:"step_ns_per_cycle"`
	TrialsPerSec       float64 `json:"trials_per_sec"`
	NsRestoreJournal   float64 `json:"ns_per_restore_journal"`
	AllocsPerTrial     float64 `json:"allocs_per_trial"`
	MeanCyclesPerTrial float64 `json:"mean_cycles_per_trial"`
	EarlyStopSpeedup   float64 `json:"early_stop_speedup"`
	ProvenFraction     float64 `json:"proven_benign_fraction"`
}

// earlyStopLine is one point on the termination-mode trajectory: how many
// cycles the mean trial actually simulates under each early-stop mode.
type earlyStopLine struct {
	Mode         string  `json:"mode"`
	MeanCycles   float64 `json:"mean_cycles_per_trial"`
	SpeedupVsOff float64 `json:"speedup_vs_off"`
}

type report struct {
	Suite      string          `json:"suite"`
	Go         string          `json:"go"`
	NumCPU     int             `json:"num_cpu"`
	Workers    int             `json:"workers"`
	Quick      bool            `json:"quick"`
	Metrics    metrics         `json:"metrics"`
	EarlyStop  []earlyStopLine `json:"early_stop"`
	Benchmarks []benchLine     `json:"benchmarks"`
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

	// Early-stop effectiveness: the same campaign runs with early
	// termination off (the full-horizon loop) and on (the default),
	// counting actually-simulated cycles per trial.
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
	_, meanOff := earlyStopRun(core.EarlyStopOff)
	onRes, meanOn := earlyStopRun(core.EarlyStopOn)
	onLine := earlyStopLine{Mode: core.EarlyStopOn.String(), MeanCycles: meanOn}
	rep.Metrics.MeanCyclesPerTrial = meanOn
	if meanOn > 0 {
		onLine.SpeedupVsOff = meanOff / meanOn
		rep.Metrics.EarlyStopSpeedup = onLine.SpeedupVsOff
	}
	rep.EarlyStop = []earlyStopLine{{Mode: core.EarlyStopOff.String(), MeanCycles: meanOff, SpeedupVsOff: 1}, onLine}
	rep.Metrics.ProvenFraction = onRes.Pops["l+r"].ProvenFraction()
	fmt.Fprintf(os.Stderr, "pipebench: early_stop         %.1f on / %.1f full-horizon cycles/trial = %.1fx; %.1f%% proven benign\n",
		meanOn, meanOff, rep.Metrics.EarlyStopSpeedup, 100*rep.Metrics.ProvenFraction)

	// Journal rewind, measured on a warmed machine: roll back a 64-word
	// dirty set, the shape of a short trial.
	m = newMachine()
	for i := 0; i < 2000 && !m.Halted(); i++ {
		m.Step()
	}
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
