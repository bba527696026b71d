// Command faultsim runs the paper's fault-injection experiments and prints
// each table and figure of the evaluation.
//
// Usage:
//
//	faultsim [flags] <command>
//
// Commands:
//
//	table1      state inventory by category (Table 1), plus protected build
//	modes       failure-mode taxonomy (Table 2)
//	fig3        outcome mix per benchmark, l+r and l populations
//	fig4        outcome mix by category, latches+RAMs
//	fig5        outcome mix by category, latches only
//	fig6        benign rate vs valid instructions in flight
//	fig7        failure modes by category
//	fig8        failure contributions by category
//	fig9        outcome mix by category with all protections
//	fig10       protected failure contributions
//	reduction   Section 4.4 failure-rate reduction summary
//	fig11       software-level fault models
//	hotspots    per-element vulnerability ranking (beyond the paper)
//	avf         structure occupancy vs masking (beyond the paper)
//	ybranch     forced-branch-inversion reconvergence (beyond the paper)
//	all         everything above
//
// Several commands may be given in one invocation; campaign results are
// cached and shared between them.
//
// Scale flags (-checkpoints, -trials, -ltrials, -soft-trials) default to a
// laptop-friendly size; the paper's scale is roughly -checkpoints 270
// -trials 100 -soft-trials 1200. Campaigns run on -workers goroutines,
// each running one whole checkpoint at a time; the worker count never
// changes results, only wall-clock time.
// -progress prints periodic checkpoints-done/trials-done lines to stderr
// without perturbing results; each line carries a running tally of HOW
// trials resolved (taint, convergence, monitor, full-horizon, anomaly),
// and a final per-mechanism breakdown with mean simulated cycles
// is printed after the last command. -earlystop on|off switches the early
// trial termination — both produce byte-identical results; they differ
// only in simulated cycles per trial.
//
// Fault-model flags: -fault-model selects what each trial injects —
// transient (the paper's single bit flip, the default), stuck0/stuck1
// (stuck-at for a -fault-duration cycle window), intermittent (stuck-at-1
// for a seeded random duration in [1, -fault-duration]), permanent
// (stuck-at-1 for the whole trial), or mbu2 (a 2-adjacent-bit upset).
// Non-transient models run without the taint shortcut and disable the
// prover (their soundness arguments need one-shot faults); windowed ones
// regain the convergence shortcuts once their window closes.
// A final per-model outcome breakdown is printed next to the
// trial-resolution report.
//
// -crosscheck K arms the runtime soundness oracle for every fault model:
// at each checkpoint, K sampled bits are re-run with every acceleration
// off and must classify exactly as the campaign does, and, when the
// prover ran, K proven-benign bits are simulated full-horizon and must
// classify µArch Match. Any violation fails the campaign.
//
// Robustness flags: -timeout arms the per-trial watchdog (livelocked
// trials are killed and counted as anomalies instead of hanging a
// worker); -journal <base> appends each campaign's completed checkpoints
// to <base>-<prot>-<bench>.jsonl. SIGINT/SIGTERM cancel gracefully:
// checkpoints already running finish, partial summaries and journals are
// flushed, and faultsim exits with code 130. A later invocation with
// -resume (plus the same -journal, seed and scale flags) replays the
// journals and runs only the missing checkpoints, reproducing the
// uninterrupted results byte-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pipefault"
	"pipefault/internal/core"
	"pipefault/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type opts struct {
	benches     []*workload.Workload
	checkpoints int
	trials      int
	ltrials     int
	softTrials  int
	horizon     int
	workers     int
	earlyStop   core.EarlyStopMode
	prove       core.ProveMode
	crossCheck  int
	model       core.FaultModel
	progress    bool
	timeout     time.Duration
	journal     string
	resume      bool
	seed        int64
	verbose     bool
}

// run is main's body, parameterized over the argument list so tests can
// drive flag validation (exit codes) without spawning a process.
func run(args []string) int {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	benchFlag := fs.String("bench", "all", "comma-separated benchmarks, or \"all\"")
	checkpoints := fs.Int("checkpoints", 12, "start points per benchmark")
	trials := fs.Int("trials", 25, "latch+RAM trials per checkpoint")
	ltrials := fs.Int("ltrials", 12, "latch-only trials per checkpoint")
	softTrials := fs.Int("soft-trials", 60, "software trials per benchmark per model")
	horizon := fs.Int("horizon", 10_000, "trial cycle budget")
	workers := fs.Int("workers", runtime.NumCPU(), "campaign worker goroutines (results are identical for any count)")
	earlyStop := fs.String("earlystop", "on", "early trial termination: on (dead-entry and re-convergence shortcuts) or off (full-horizon equivalence oracle)")
	proveFlag := fs.String("prove", "on", "static benign-injection prover: on (sample only unproven bits, re-weight analytically) or off (full-population sampling)")
	crossCheck := fs.Int("crosscheck", 0, "per-checkpoint soundness oracle: check this many sampled bits (and as many proven-benign bits) against full-horizon runs and fail the campaign on any disagreement (0 disables)")
	faultModel := fs.String("fault-model", "transient", "fault model to inject: "+strings.Join(core.FaultModelNames(), ", "))
	faultDuration := fs.Int("fault-duration", 100, "stuck-at assertion window in cycles (stuck0/stuck1; the upper bound of an intermittent fault's random window)")
	progress := fs.Bool("progress", false, "print periodic campaign progress to stderr")
	timeout := fs.Duration("timeout", 0, "per-trial watchdog budget; a livelocked trial is killed and counted as an anomaly (0 disables)")
	journal := fs.String("journal", "", "campaign journal path base; each campaign appends completed checkpoints to <base>-<prot>-<bench>.jsonl for -resume")
	resumeFlag := fs.Bool("resume", false, "resume interrupted campaigns from their -journal files instead of starting over")
	seed := fs.Int64("seed", 1, "campaign RNG seed")
	verbose := fs.Bool("v", false, "progress output")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: faultsim [flags] <table1|modes|fig3..fig11|hotspots|avf|reduction|ybranch|all>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}

	// Reject nonsensical flags up front with a clear message rather than
	// failing obscurely (or silently doing nothing) mid-campaign. The range
	// checks live in core's Config.Validate — a prototype config carrying
	// every flag-controlled field is validated once here; the checks below
	// it are front-end policy (scale flags that core would default, but a
	// command line should state explicitly).
	earlyStopMode, err := core.ParseEarlyStopMode(*earlyStop)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		return 2
	}
	proveMode, err := core.ParseProveMode(*proveFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		return 2
	}
	model, err := core.ParseFaultModel(*faultModel, *faultDuration)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		return 2
	}
	proto := core.Config{
		Workload:     workload.Tiny, // validation placeholder; real campaigns set their own
		Checkpoints:  *checkpoints,
		Horizon:      *horizon,
		Workers:      *workers,
		EarlyStop:    earlyStopMode,
		Prove:        proveMode,
		CrossCheck:   *crossCheck,
		Model:        model,
		TrialTimeout: *timeout,
		Populations: []core.Population{
			{Name: "l+r", Trials: *trials},
			{Name: "l", LatchOnly: true, Trials: *ltrials},
		},
	}
	if err := proto.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		return 2
	}
	for _, check := range []struct {
		bad bool
		msg string
	}{
		{*checkpoints < 1, fmt.Sprintf("-checkpoints must be >= 1 (got %d)", *checkpoints)},
		{*trials < 1, fmt.Sprintf("-trials must be >= 1 (got %d)", *trials)},
		{*softTrials < 1, fmt.Sprintf("-soft-trials must be >= 1 (got %d)", *softTrials)},
		{*horizon < 1, fmt.Sprintf("-horizon must be >= 1 (got %d)", *horizon)},
		{*faultDuration < 1, fmt.Sprintf("-fault-duration must be >= 1 (got %d)", *faultDuration)},
		{*resumeFlag && *journal == "", "-resume requires -journal"},
	} {
		if check.bad {
			fmt.Fprintln(os.Stderr, "faultsim:", check.msg)
			return 2
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultsim:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "faultsim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "faultsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "faultsim:", err)
			}
		}()
	}

	o := &opts{
		checkpoints: *checkpoints, trials: *trials, ltrials: *ltrials,
		softTrials: *softTrials, horizon: *horizon, workers: *workers,
		earlyStop: earlyStopMode, prove: proveMode,
		crossCheck: *crossCheck, model: model,
		progress: *progress,
		timeout:  *timeout, journal: *journal, resume: *resumeFlag,
		seed: *seed, verbose: *verbose,
	}
	if o.workers <= 0 {
		o.workers = runtime.NumCPU() // mirror core.Config's default so the wall-clock line is honest
	}
	if *benchFlag == "all" {
		o.benches = workload.Suite()
	} else {
		for _, name := range strings.Split(*benchFlag, ",") {
			w, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			o.benches = append(o.benches, w)
		}
	}

	// SIGINT/SIGTERM cancel the campaign context: checkpoints already
	// running finish, the partial results (and journals, with -journal)
	// are flushed, and faultsim exits 130 instead of losing the work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r := &runner{o: o, ctx: ctx}
	start := time.Now()
	for _, cmd := range fs.Args() {
		if fs.NArg() > 1 {
			fmt.Printf("\n===== %s =====\n", cmd)
		}
		if err := r.dispatch(cmd); err != nil {
			var cerr *core.CanceledError
			if errors.As(err, &cerr) {
				fmt.Fprintln(os.Stderr, "faultsim:", err)
				if o.journal != "" {
					fmt.Fprintln(os.Stderr, "faultsim: completed checkpoints are journaled; re-run with -resume to continue")
				}
				return 130
			}
			fmt.Fprintln(os.Stderr, "faultsim:", err)
			return 1
		}
	}
	if s := r.resolveReport(); s != "" {
		fmt.Fprint(os.Stderr, s)
	}
	if s := r.modelReport(); s != "" {
		fmt.Fprint(os.Stderr, s)
	}
	fmt.Fprintf(os.Stderr, "faultsim: wall-clock %.1fs (%d workers)\n",
		time.Since(start).Seconds(), o.workers)
	return 0
}

// runner caches campaign results across figures within one invocation.
type runner struct {
	o      *opts
	ctx    context.Context
	unprot []*core.Result
	prot   []*core.Result

	// Per-mechanism trial-resolution tallies, fed by Config.OnTrialResolved
	// from every campaign this invocation runs. The callback fires on worker
	// goroutines, hence the atomics. Journal-replayed checkpoints report nothing,
	// so a -resume run tallies only the work it actually performed.
	resolved      [core.NumResolveKinds]atomic.Int64
	resolvedSteps [core.NumResolveKinds]atomic.Int64
}

// resolveSummary is the compact per-progress-line form: "taint 812, convergence 3, ...".
func (r *runner) resolveSummary() string {
	var parts []string
	for k := core.ResolveKind(0); k < core.NumResolveKinds; k++ {
		if n := r.resolved[k].Load(); n != 0 {
			parts = append(parts, fmt.Sprintf("%s %d", k, n))
		}
	}
	return strings.Join(parts, ", ")
}

// resolveReport is the end-of-run breakdown: share of attempts and mean
// simulated cycles per resolution mechanism. Empty if no campaign ran.
func (r *runner) resolveReport() string {
	var total int64
	for k := range r.resolved {
		total += r.resolved[k].Load()
	}
	if total == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "faultsim: trial resolution mechanisms (%d attempts):\n", total)
	for k := core.ResolveKind(0); k < core.NumResolveKinds; k++ {
		n := r.resolved[k].Load()
		if n == 0 {
			continue
		}
		mean := float64(r.resolvedSteps[k].Load()) / float64(n)
		fmt.Fprintf(&b, "  %-12s %8d  (%5.1f%%)  mean %.0f cycles\n",
			k, n, 100*float64(n)/float64(total), mean)
	}
	return b.String()
}

// modelReport is the per-fault-model outcome breakdown printed next to the
// trial-resolution report: one line per model this invocation campaigned
// (normally one), with classified trial counts and the paper's four
// outcome rates summed over benchmarks and populations. Empty if no
// microarchitectural campaign ran.
func (r *runner) modelReport() string {
	all := make([]*core.Result, 0, len(r.unprot)+len(r.prot))
	all = append(all, r.unprot...)
	all = append(all, r.prot...)
	var order []string
	counts := make(map[string]*[core.NumOutcomes]int)
	for _, res := range all {
		c := counts[res.Model]
		if c == nil {
			c = new([core.NumOutcomes]int)
			counts[res.Model] = c
			order = append(order, res.Model)
		}
		for _, p := range res.Pops {
			oc := p.OutcomeCounts()
			for o := range oc {
				c[o] += oc[o]
			}
		}
	}
	if len(order) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("faultsim: fault-model outcome breakdown:\n")
	for _, m := range order {
		c := counts[m]
		n := c[core.OutMatch] + c[core.OutGray] + c[core.OutSDC] + c[core.OutTerminated]
		if n == 0 {
			fmt.Fprintf(&b, "  %-14s 0 classified trials\n", m)
			continue
		}
		pct := func(o core.Outcome) float64 { return 100 * float64(c[o]) / float64(n) }
		anom := ""
		if a := c[core.OutAnomaly]; a > 0 {
			anom = fmt.Sprintf("  anomalies %d", a)
		}
		fmt.Fprintf(&b, "  %-14s %8d trials  match %5.1f%%  gray %5.1f%%  sdc %5.1f%%  term %5.1f%%%s\n",
			m, n, pct(core.OutMatch), pct(core.OutGray), pct(core.OutSDC), pct(core.OutTerminated), anom)
	}
	return b.String()
}

func (r *runner) dispatch(cmd string) error {
	switch cmd {
	case "table1":
		fmt.Println("== Baseline machine ==")
		fmt.Println(pipefault.StateInventory(pipefault.ProtectConfig{}))
		fmt.Println("== With all protection mechanisms (Section 4) ==")
		fmt.Println(pipefault.StateInventory(pipefault.AllProtections()))
		return nil
	case "modes":
		fmt.Println("Table 2. Failure modes:")
		for _, m := range core.FailureModes() {
			fmt.Printf("  %-8s (%s)\n", m, m.Outcome())
		}
		return nil
	case "fig3":
		u, err := r.unprotected()
		if err != nil {
			return err
		}
		fmt.Print(pipefault.RenderFigure3(u, []string{"l+r", "l"}))
		return nil
	case "fig4", "fig5":
		u, err := r.unprotected()
		if err != nil {
			return err
		}
		agg := pipefault.MergeResults("average", u)
		if cmd == "fig4" {
			fmt.Print(pipefault.RenderByCategory(
				"Figure 4. Fault injection into latches+RAMs by type.", agg.Pops["l+r"]))
		} else {
			fmt.Print(pipefault.RenderByCategory(
				"Figure 5. Fault injection into latches by type.", agg.Pops["l"]))
		}
		return nil
	case "fig6":
		u, err := r.unprotected()
		if err != nil {
			return err
		}
		agg := pipefault.MergeResults("average", u)
		fmt.Print(pipefault.RenderFigure6(agg.Scatter["l+r"]))
		return nil
	case "fig7":
		u, err := r.unprotected()
		if err != nil {
			return err
		}
		agg := pipefault.MergeResults("average", u)
		fmt.Print(pipefault.RenderFigure7(
			"Figure 7. Failure modes by category (latches+RAMs).", agg.Pops["l+r"]))
		return nil
	case "fig8":
		u, err := r.unprotected()
		if err != nil {
			return err
		}
		agg := pipefault.MergeResults("average", u)
		fmt.Print(pipefault.RenderFigure8(
			"Figure 8. Contributions to SDC and Terminated.", agg.Pops["l+r"]))
		return nil
	case "fig9":
		p, err := r.protected()
		if err != nil {
			return err
		}
		agg := pipefault.MergeResults("average", p)
		fmt.Print(pipefault.RenderByCategory(
			"Figure 9. Protected: injection into latches+RAMs by type.", agg.Pops["l+r"]))
		return nil
	case "fig10":
		p, err := r.protected()
		if err != nil {
			return err
		}
		agg := pipefault.MergeResults("average", p)
		fmt.Print(pipefault.RenderFigure8(
			"Figure 10. Protected: contributions to SDC and Terminated.", agg.Pops["l+r"]))
		return nil
	case "reduction":
		u, err := r.unprotected()
		if err != nil {
			return err
		}
		p, err := r.protected()
		if err != nil {
			return err
		}
		uAgg := pipefault.MergeResults("average", u)
		pAgg := pipefault.MergeResults("average", p)
		fmt.Print(pipefault.RenderFailureReduction(
			uAgg.Pops["l+r"], pAgg.Pops["l+r"], protectionOverheadFrac()))
		return nil
	case "hotspots":
		u, err := r.unprotected()
		if err != nil {
			return err
		}
		agg := pipefault.MergeResults("average", u)
		fmt.Print(pipefault.RenderHotspots(
			"Most vulnerable state elements (latches+RAMs).", agg.Pops["l+r"], 10, 25))
		return nil
	case "avf":
		u, err := r.unprotected()
		if err != nil {
			return err
		}
		var us []*core.Utilization
		for _, w := range r.o.benches {
			ut, err := core.MeasureUtilization(w, pipefault.ProtectConfig{}, 100)
			if err != nil {
				return err
			}
			us = append(us, ut)
		}
		fmt.Print(pipefault.RenderUtilization(us, u, "l+r"))
		return nil
	case "ybranch":
		var ys []*core.YBranchResult
		for i, w := range r.o.benches {
			y, err := core.RunYBranch(w, r.o.softTrials/2, r.o.seed+int64(500+i))
			if err != nil {
				return err
			}
			if r.o.verbose {
				fmt.Fprintf(os.Stderr, "  ybranch %s done\n", w.Name)
			}
			ys = append(ys, y)
		}
		fmt.Print(pipefault.RenderYBranch(ys))
		return nil
	case "fig11":
		res, err := r.software()
		if err != nil {
			return err
		}
		fmt.Print(pipefault.RenderFigure11(res))
		return nil
	case "all":
		for _, sub := range []string{"table1", "modes", "fig3", "fig4", "fig5", "fig6",
			"fig7", "fig8", "hotspots", "avf", "fig9", "fig10", "reduction", "fig11", "ybranch"} {
			fmt.Printf("\n===== %s =====\n", sub)
			if err := r.dispatch(sub); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown command %q", cmd)
}

// campaigns runs (and caches) one campaign per benchmark.
func (r *runner) campaigns(protect pipefault.ProtectConfig, cache *[]*core.Result) ([]*core.Result, error) {
	if *cache != nil {
		return *cache, nil
	}
	var out []*core.Result
	for i, w := range r.o.benches {
		start := time.Now()
		pops := []core.Population{{Name: "l+r", Trials: r.o.trials}}
		if !protect.Any() {
			pops = append(pops, core.Population{Name: "l", LatchOnly: true, Trials: r.o.ltrials})
		}
		cfg := core.Config{
			Workload:     w,
			Protect:      protect,
			Checkpoints:  r.o.checkpoints,
			Horizon:      r.o.horizon,
			Populations:  pops,
			Workers:      r.o.workers,
			EarlyStop:    r.o.earlyStop,
			Prove:        r.o.prove,
			CrossCheck:   r.o.crossCheck,
			Model:        r.o.model,
			TrialTimeout: r.o.timeout,
			Seed:         r.o.seed + int64(i),
		}
		cfg.OnTrialResolved = func(kind core.ResolveKind, steps int) {
			r.resolved[kind].Add(1)
			r.resolvedSteps[kind].Add(int64(steps))
		}
		if r.o.journal != "" {
			label := "unprot"
			if protect.Any() {
				label = "prot"
			}
			cfg.JournalPath = fmt.Sprintf("%s-%s-%s.jsonl", r.o.journal, label, w.Name)
		}
		if r.o.progress {
			// The callback runs on the aggregation side once per checkpoint
			// and observes results only after they are final, so printing
			// cannot perturb the campaign. Throttle to ~20 lines per
			// benchmark.
			name := w.Name
			var last int64
			cfg.OnProgress = func(p core.Progress) {
				step := p.Trials / 20
				if step < 1 {
					step = 1
				}
				if p.TrialsDone-last < step && p.TrialsDone != p.Trials {
					return
				}
				last = p.TrialsDone
				line := fmt.Sprintf("  %s: %d/%d checkpoints, %d/%d trials",
					name, p.CheckpointsDone, p.Checkpoints, p.TrialsDone, p.Trials)
				if s := r.resolveSummary(); s != "" {
					line += " [" + s + "]"
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
		var res *core.Result
		var err error
		if r.o.resume && cfg.JournalPath != "" {
			res, err = core.Resume(r.ctx, cfg)
		} else {
			res, err = core.RunContext(r.ctx, cfg)
		}
		if err != nil {
			var cerr *core.CanceledError
			if errors.As(err, &cerr) && res != nil {
				// Partial report: every checkpoint in it is complete.
				fmt.Fprintf(os.Stderr, "  partial %s\n", res)
			}
			return nil, err
		}
		if r.o.verbose {
			fmt.Fprintf(os.Stderr, "  %s (%.1fs)\n", res, time.Since(start).Seconds())
		}
		out = append(out, res)
	}
	*cache = out
	return out, nil
}

func (r *runner) unprotected() ([]*core.Result, error) {
	return r.campaigns(pipefault.ProtectConfig{}, &r.unprot)
}

func (r *runner) protected() ([]*core.Result, error) {
	return r.campaigns(pipefault.AllProtections(), &r.prot)
}

func (r *runner) software() ([]*core.SoftResult, error) {
	var out []*core.SoftResult
	for i, w := range r.o.benches {
		en, err := core.NewSoftEngine(w)
		if err != nil {
			return nil, err
		}
		for j, model := range core.SoftModels() {
			res, err := en.RunModel(model, r.o.softTrials, r.o.seed+int64(100+10*i+j))
			if err != nil {
				return nil, err
			}
			if r.o.verbose {
				fmt.Fprintf(os.Stderr, "  %s/%s done\n", w.Name, model)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// protectionOverheadFrac computes the extra-state fraction the protection
// mechanisms introduce (the paper's "6-7% extra state").
func protectionOverheadFrac() float64 {
	base := stateBits(pipefault.ProtectConfig{})
	prot := stateBits(pipefault.AllProtections())
	return float64(prot-base) / float64(base)
}

func stateBits(p pipefault.ProtectConfig) int {
	latch, ram := pipefault.StateBits(p)
	return latch + ram
}
