// Command bench measures time to precision: the wall-clock seconds a
// fault-injection campaign needs to bring the CI95 half-width of a
// workload's failure rate (SDC + Terminated) down to a target H.
//
// Usage:
//
//	go run ./bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//	               [--spans FILE] [--record FILE]
//	go run ./bench --reference --workload W
//
// bash bench/run.sh takes the same arguments; it builds the command inside
// the checkout (.bench_build) and runs it from there.
//
// The workloads are in bench/workloads.json. An invocation warms up the Go
// heap with one small untimed campaign, then finds T*, the smallest number
// of trials per checkpoint whose campaign meets H (see session.search), and
// then:
//
//   - with --trace 0, reruns the campaign at T* until another rerun would
//     overrun --seconds and reports the end-to-end metrics: time_to_ci_s
//     (median wall time of core.Run at T*), setup_s (median time from
//     core.Run's start to its first resolved trial, over every campaign of
//     the invocation) and heap_peak_mb (median peak of heap objects);
//   - with --trace 1, runs the campaign at T* once untraced and once
//     recording spans, times the layers' public entry points, writes the
//     spans to --spans, prints a per-span summary and reports the per-layer
//     metrics, trials_to_ci among them.
//
// Every invocation checks its outputs and exits 1 if a check fails: the
// campaign at T* must meet H and match the prefix the search predicted;
// its rate must agree with the workload's reference rate (measured with
// every acceleration off, at another seed) within the two half-widths, and
// that tolerance must not reach a rate of 0; reruns must export identical
// results, and a traced run must export the same results as the untraced
// one. A core.Run error also exits 1.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where attempted counts
// the trials drawn by every campaign of the invocation and failed those
// the engine contained as anomalies. Progress and summaries go to
// standard error.
//
// --reference runs the workload with early stopping and the prover off at
// seed 7, which the timed runs do not use, with enough trials to meet H,
// and prints the reference entry to put in bench/workloads.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"pipefault/internal/core"
)

const (
	// refSeed is the reference run's seed, one no timed run uses by default.
	refSeed = 7
	// refCheckpoints multiplies the workload's checkpoints in the reference
	// run, so that the reference's half-width over checkpoints is about a
	// quarter of a timed campaign's and adds little to the tolerance.
	refCheckpoints = 16
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the invocation's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see bench/workloads.json)")
	seed := fs.Int64("seed", 4242, "campaign seed (core.Config.Seed)")
	seconds := fs.Int("seconds", 20, "how long end-to-end runs keep rerunning the campaign at T*")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics, 0 for end-to-end metrics")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>-<seed>.json)")
	reference := fs.Bool("reference", false, "measure the workload's reference rate with every acceleration off")
	record := fs.String("record", "", "append the result as one JSON line, with workload, seed and trace, to this file (input of bench/compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *name == "" || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(stderr, "usage: bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--record FILE]")
		fmt.Fprintln(stderr, "       bench --reference --workload W")
		return 2
	}
	table, err := loadTable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	w, err := find(table, *name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	s := &session{w: w, seed: *seed, log: stderr}
	if *reference {
		if err := s.reference(stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	// One OS thread for the campaign's worker, its checkpoint pilot and the
	// garbage collector. On a shared two-core host the second core's load
	// otherwise moves campaign wall times by 15-30% from run to run; on one
	// thread the same campaigns vary by about 7%.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := warmUp(); err != nil {
		fmt.Fprintln(stderr, "bench: warm-up:", err)
		return 1
	}
	var metrics map[string]metric
	if *trace == 1 {
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s-%d.json", w.Name, *seed)
		}
		metrics, err = s.traced(path)
	} else {
		metrics, err = s.endToEnd(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	res := result{Correct: len(s.problems) == 0, Metrics: metrics}
	for _, c := range s.campaigns {
		res.Attempted += c.drawn
		res.Failed += c.anomalies
	}
	for _, p := range s.problems {
		fmt.Fprintln(stderr, "bench: CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if *record != "" {
		if err := appendRecord(*record, w.Name, *seed, *trace, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// check verifies the campaigns at T*: the first must meet H, reproduce the
// estimate of the search's prefix exactly, and agree with the reference
// rate within a tolerance narrow enough to tell the reference from a rate
// of 0; every rerun must export the same results.
func (s *session) check(timed []*campaign, want estimate) {
	c := timed[0]
	if c.est.CI > s.w.TargetCI {
		s.fail("campaign at %d trials/checkpoint reached ±%.4f, wider than the target ±%.4f", c.trials, c.est.CI, s.w.TargetCI)
	}
	if c.est != want {
		s.fail("campaign at %d trials/checkpoint gave %+v, but its prefix in the search gave %+v: the prefix shortcut no longer holds", c.trials, c.est, want)
	}
	if ref := s.w.Reference; ref == nil {
		s.fail("workload %s has no reference rate; run bench --reference --workload %s", s.w.Name, s.w.Name)
	} else {
		tol := c.est.Spread + ref.CI
		fmt.Fprintf(s.log, "bench: failure rate %.4f, reference %.4f (seed %d), tolerance ±%.4f\n", c.est.Rate, ref.Rate, ref.Seed, tol)
		if math.Abs(c.est.Rate-ref.Rate) > tol {
			s.fail("failure rate %.4f differs from the reference %.4f by more than %.4f", c.est.Rate, ref.Rate, tol)
		}
		if tol >= ref.Rate {
			s.fail("tolerance ±%.4f reaches a failure rate of 0 from the reference %.4f, so the check could not catch a build that loses failures; give %s more checkpoints", tol, ref.Rate, s.w.Name)
		}
	}
	for _, o := range timed[1:] {
		if o.hash != c.hash {
			s.fail("a rerun at the same seed exported different results (%s vs %s)", o.hash, c.hash)
		}
	}
}

func (s *session) fail(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// endToEnd finds T*, then reruns the campaign at T* for the given time.
func (s *session) endToEnd(d time.Duration) (map[string]metric, error) {
	tStar, want, c, err := s.search(s.w.TrialsHint)
	if err != nil {
		return nil, err
	}
	// Rerun until another campaign would overrun d; at least one runs.
	var timed []*campaign
	var last time.Duration
	if c != nil {
		timed = append(timed, c)
		last = c.wall
	}
	start := time.Now()
	for len(timed) == 0 || time.Since(start)+last <= d {
		t0 := time.Now()
		c, err := s.run(tStar, nil)
		if err != nil {
			return nil, err
		}
		timed = append(timed, c)
		last = time.Since(t0)
	}
	s.check(timed, want)

	var wall, heap, setup []float64
	for _, c := range timed {
		wall = append(wall, c.wall.Seconds())
		heap = append(heap, float64(c.heapPeak)/1e6)
	}
	for _, c := range s.campaigns {
		setup = append(setup, c.setup.Seconds())
	}
	m := map[string]metric{
		"time_to_ci_s": {median(wall), "s"},
		"setup_s":      {median(setup), "s"},
		"heap_peak_mb": {median(heap), "MB"},
	}
	fmt.Fprintf(s.log, "bench: %s seed %d: T* = %d, %d campaigns at T*, %d set-ups\n", s.w.Name, s.seed, tStar, len(timed), len(setup))
	printMetrics(s.log, m)
	return m, nil
}

// traced finds T*, runs the campaign there untraced and then traced, and
// probes the layers. The per-layer metrics come from both runs' counts and
// from the spans.
func (s *session) traced(path string) (map[string]metric, error) {
	tStar, want, timed, err := s.search(s.w.TrialsHint)
	if err != nil {
		return nil, err
	}
	if timed == nil {
		if timed, err = s.run(tStar, nil); err != nil {
			return nil, err
		}
	}
	s.check([]*campaign{timed}, want)

	rec := newRecorder()
	tc, err := s.run(tStar, rec)
	if err != nil {
		return nil, err
	}
	if tc.hash != timed.hash {
		s.fail("the traced campaign exported different results (%s) than the untraced one (%s)", tc.hash, timed.hash)
	}
	attempts := float64(tc.attempts())
	stepsPerTrial := float64(tc.steps) / attempts
	lc, err := s.probeLayers(rec, int(math.Round(stepsPerTrial)))
	if err != nil {
		return nil, err
	}
	if err := rec.write(path, s.w.Name, s.seed); err != nil {
		return nil, err
	}
	rec.printSummary(s.log)
	fmt.Fprintf(s.log, "bench: spans written to %s\n", path)

	total := func(name string) float64 {
		var t time.Duration
		for _, d := range rec.durations(name) {
			t += d
		}
		return t.Seconds()
	}
	medianMicros := func(name string) float64 {
		var xs []float64
		for _, d := range rec.durations(name) {
			xs = append(xs, float64(d.Nanoseconds())/1e3)
		}
		return median(xs)
	}
	frac := func(k core.ResolveKind) float64 { return float64(tc.kinds[k]) / attempts }
	trials := rec.durations("core.trial")
	measure, walk, reference, survey := total("uarch.measure"), total("uarch.walk"), total("arch.reference"), total("core.survey")

	m := map[string]metric{
		"trials_to_ci":                   {float64(tStar * s.w.Checkpoints * len(s.w.Kernels)), "trials"},
		"arch.reference_s":               {reference, "s"},
		"arch.dyn_insns":                 {float64(lc.dynInsns), "count"},
		"uarch.measure_s":                {measure, "s"},
		"uarch.step_ns_per_cycle":        {1e9 * measure / float64(lc.cycles), "ns/cycle"},
		"uarch.cycles":                   {float64(lc.cycles), "count"},
		"uarch.ipc":                      {float64(lc.retired) / float64(lc.cycles), "insns/cycle"},
		"uarch.walk_s":                   {walk, "s"},
		"uarch.traced_step_ns_per_cycle": {1e9 * total("uarch.traced_step") / float64(lc.tracedCycles), "ns/cycle"},
		"uarch.rollback_us":              {medianMicros("uarch.rollback"), "us"},
		"uarch.restore_checkpoint_us":    {medianMicros("uarch.restore_checkpoint"), "us"},
		"mem.capture_image_us":           {medianMicros("mem.capture_image"), "us"},
		"mem.image_pages":                {float64(lc.imagePages) / float64(lc.checkpoints), "pages"},
		"prove.proven_frac":              {core.Merge("", timed.results).Pops[pop].ProvenFraction(), "ratio"},
		"core.survey_s":                  {survey, "s"},
		"core.fixed_ms_per_ck":           {1e3 * (survey - reference - measure - walk) / float64(lc.checkpoints), "ms"},
		"core.steps_per_trial":           {stepsPerTrial, "cycles"},
		"core.resolve.taint_frac":        {frac(core.ResolveTaint), "ratio"},
		"core.resolve.quiesce_frac":      {frac(core.ResolveQuiesce), "ratio"},
		"core.resolve.converge_frac":     {frac(core.ResolveConverge), "ratio"},
		"core.resolve.monitor_frac":      {frac(core.ResolveMonitor), "ratio"},
		"core.resolve.horizon_frac":      {frac(core.ResolveHorizon), "ratio"},
		"core.trial_p50_us":              {float64(percentile(trials, 0.5).Nanoseconds()) / 1e3, "us"},
		"core.trial_p90_us":              {float64(percentile(trials, 0.9).Nanoseconds()) / 1e3, "us"},
		"core.trials_per_s":              {float64(timed.drawn) / timed.wall.Seconds(), "trials/s"},
		"core.alloc_kb_per_trial":        {float64(timed.allocs) / 1e3 / float64(timed.drawn), "kB"},
		"core.trace_overhead_frac":       {tc.wall.Seconds()/timed.wall.Seconds() - 1, "ratio"},
	}
	printMetrics(s.log, m)
	return m, nil
}

// reference measures the workload with early stopping and the prover off,
// at refSeed, and prints the reference entry. It draws refCheckpoints times
// the workload's checkpoints, so its own spread over checkpoints adds
// little to the check's tolerance, and runs on every CPU (the worker count
// never changes results). The prefix at T* is exactly the campaign at T*,
// so the search's estimate is the reference without a rerun.
func (s *session) reference(stdout io.Writer) error {
	s.seed = refSeed
	s.tune = func(c *core.Config) {
		c.EarlyStop = core.EarlyStopOff
		c.Prove = core.ProveOff
		c.Checkpoints *= refCheckpoints
		c.Workers = runtime.NumCPU()
	}
	tStar, est, _, err := s.search(s.w.TrialsHint)
	if err != nil {
		return err
	}
	ref := Reference{
		Rate:        est.Rate,
		CI:          est.Spread,
		Seed:        refSeed,
		Checkpoints: refCheckpoints * s.w.Checkpoints,
		Trials:      tStar,
		Command:     "go run ./bench --reference --workload " + s.w.Name,
	}
	out, err := json.MarshalIndent(map[string]any{"reference": ref}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(s.log, "bench: %s reference: fail %.4f (CI95 ±%.4f at fixed checkpoints, ±%.4f at 99.9%% over checkpoints) at %d trials/checkpoint\n",
		s.w.Name, est.Rate, est.CI, est.Spread, tStar)
	fmt.Fprintf(stdout, "%s\n", out)
	return nil
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// appendRecord adds one line to a bench/compare input file.
func appendRecord(path, workload string, seed int64, trace int, res result) error {
	line, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "trace": trace, "result": res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("recording result: %w", err)
	}
	if _, err := fmt.Fprintf(f, "%s\n", line); err != nil {
		f.Close()
		return fmt.Errorf("recording result: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("recording result: %w", err)
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
