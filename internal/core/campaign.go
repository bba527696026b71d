package core

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"pipefault/internal/mem"
	"pipefault/internal/state"
	"pipefault/internal/stats"
	"pipefault/internal/uarch"
	"pipefault/internal/workload"
)

// Population selects the injection population of a campaign: all eligible
// state (latches + RAM cells) or latches only (the paper's "l+r" and "l"
// campaigns).
type Population struct {
	Name      string
	LatchOnly bool
	// Trials per checkpoint.
	Trials int
}

// Config parameterizes a microarchitectural fault-injection campaign over
// one workload.
type Config struct {
	Workload *workload.Workload
	Protect  uarch.ProtectConfig
	// Recovery selects the pipeline's misprediction recovery style
	// (default: the paper's drain-and-arch-copy).
	Recovery uarch.RecoveryStyle

	// Checkpoints is the number of start points (the paper uses 250-300).
	Checkpoints int
	// Populations to inject at each checkpoint (they share golden runs).
	Populations []Population

	// Horizon is the per-trial cycle budget (paper: 10,000).
	Horizon int
	// WarmupCycles is the minimum warm-up before the first checkpoint.
	WarmupCycles int

	// Workers is the number of campaign worker goroutines. Zero means
	// runtime.NumCPU(). The worker count never affects the
	// Result: trial RNGs derive from (Seed, checkpoint index), so Workers:1
	// and Workers:N are bit-identical.
	Workers int //pipelint:identity-ok scheduling knob; any worker count produces bit-identical results

	// OnProgress, if set, receives a progress update from the aggregation
	// goroutine each time a checkpoint completes (journal-replayed
	// checkpoints included). The callback is invoked serially and observes
	// results only after they are final, so it cannot perturb the campaign.
	OnProgress func(Progress) //pipelint:identity-ok observation-only callback; sees results after they are final

	// TrialTimeout, when positive, is the per-trial wall-time watchdog: a
	// trial whose Step loop exceeds the budget is killed, rolled back via
	// the normal rewind path, and classified OutAnomaly instead of hanging
	// its worker. Zero disables the watchdog. A fired watchdog depends on
	// the wall clock, so enabling it trades strict run-to-run determinism
	// for liveness — but only for trials that would otherwise livelock,
	// and anomalies never enter the paper's four-outcome rates.
	TrialTimeout time.Duration //pipelint:identity-ok watchdog kills only livelocked trials, which classify OutAnomaly outside all rates

	// Clock supplies monotonic nanoseconds to the trial watchdog. Nil with
	// TrialTimeout > 0 selects the wall clock; tests inject fake clocks to
	// make watchdog expiry deterministic. Ignored when TrialTimeout is 0.
	Clock func() int64 //pipelint:identity-ok watchdog time source; see TrialTimeout

	// JournalPath, when set, appends every completed checkpoint's results
	// to a campaign journal at this path as they are aggregated. Resume
	// replays the journal and re-runs only the checkpoints it does not
	// fully cover, reproducing an uninterrupted run's exports
	// byte-identically.
	JournalPath string //pipelint:identity-ok journal location; where results are recorded, never what they are

	// EarlyStop selects the trial-termination strategy. EarlyStopOn (the
	// default) classifies a trial the moment its outcome is provably
	// determined, through two composing mechanisms: dead injections
	// (flipped entry overwritten before the golden run ever reads it)
	// resolve in O(1) from the golden liveness trace without stepping at
	// all; and trials whose remaining divergence from the golden trajectory
	// is provably frozen — every differing entry untouched by the golden
	// run for the rest of the horizon — resolve at the next convergence
	// keyframe by replaying the trial-loop monitors over the golden run's
	// recorded per-cycle bits (see DESIGN.md "Convergence termination"). A
	// trial whose machine stops writing state needs neither: it never
	// retires again, so the loop's locked monitor ends it within 200
	// memoized O(1) Steps. The engine applies each
	// mechanism only where the fault model keeps it sound (see
	// FaultModel.Transient). EarlyStopOff steps every trial to
	// classification or the full horizon — the baseline oracle. Both modes
	// produce bit-identical Results.
	EarlyStop EarlyStopMode //pipelint:identity-ok termination strategy; both modes produce bit-identical results

	// OnTrialResolved, if set, receives how each trial attempt resolved —
	// which termination mechanism decided it — alongside the machine cycles
	// it actually simulated (0 for trials resolved without stepping). A
	// trial retried after a contained panic reports once per attempt (the
	// unwound attempt as ResolveAnomaly). Journal-replayed checkpoints
	// report nothing: their trials are not re-run. Instrumentation only;
	// called from worker goroutines, must be safe for concurrent use.
	OnTrialResolved func(kind ResolveKind, steps int) //pipelint:identity-ok observation-only instrumentation callback

	// Prove selects the static benign-injection prover. ProveOn (the
	// default) runs internal/prove over each checkpoint's golden trace and
	// state: bits proven to classify µArch Match are never simulated —
	// sampling draws only from the must-simulate remainder while reported
	// rates re-weight the proven mass analytically (the ProvenBenign
	// stratum). ProveOff samples the full population: the equivalence
	// oracle for the analytic re-weighting. Unlike EarlyStop, the prover
	// changes which trials are drawn, so Prove is part of the campaign's
	// journal identity.
	Prove ProveMode

	// Model selects the fault model each trial injects: TransientFlip (the
	// nil default — today's single transient bit flip), StuckAt (stuck-at-0/1
	// over a transient window, an intermittent seeded-random duration, or
	// permanently), or MultiBit (adjacent-bit MBUs within one entry). The
	// model changes what every trial simulates, so it is part of the
	// campaign's journal identity; Validate auto-restricts Prove to what
	// is sound for the chosen model (see restrictToModel).
	Model FaultModel

	// CrossCheck is the campaign's runtime soundness oracle: when positive,
	// each checkpoint checks CrossCheck samples against the unaccelerated
	// reference after its golden run and before its trials. Each sample
	// draws one must-simulate bit the way a trial is drawn and requires
	// the campaign's own run of it to classify exactly like its
	// full-horizon run; when the prover ran, it also simulates one
	// proven-benign bit full-horizon and requires µArch Match. Any
	// violation aborts the campaign with a *CrossCheckError. Zero disables
	// the oracle. It can only abort the campaign, never change its results.
	CrossCheck int //pipelint:identity-ok soundness oracle; can only abort the campaign, never change results

	Seed int64
}

// EarlyStopMode selects the trial-termination strategy (see
// Config.EarlyStop).
type EarlyStopMode uint8

// Early-stop strategies. EarlyStopOn is the zero value and therefore the
// default; EarlyStopOff keeps its historical value. EarlyStop is excluded
// from the campaign journal identity, so the mode set cannot invalidate
// existing journals.
const (
	EarlyStopOn EarlyStopMode = iota
	EarlyStopOff
)

func (e EarlyStopMode) String() string {
	switch e {
	case EarlyStopOn:
		return "on"
	case EarlyStopOff:
		return "off"
	}
	return fmt.Sprintf("earlystop(%d)", uint8(e))
}

// ParseEarlyStopMode maps a flag value to an EarlyStopMode.
func ParseEarlyStopMode(s string) (EarlyStopMode, error) {
	switch s {
	case "on":
		return EarlyStopOn, nil
	case "off":
		return EarlyStopOff, nil
	}
	return 0, fmt.Errorf("core: unknown early-stop mode %q (want \"on\" or \"off\")", s)
}

// ResolveKind identifies the mechanism that terminated a trial attempt
// (see Config.OnTrialResolved).
type ResolveKind uint8

// Trial resolution mechanisms.
const (
	// ResolveTaint: the flipped entry was provably dead — classified in
	// O(1) from the golden liveness trace without stepping.
	ResolveTaint ResolveKind = iota
	// ResolveQuiesce is no longer produced: a trial whose machine reaches a
	// write-free fixed point now runs on to its locked monitor
	// (ResolveMonitor). The kind stays so per-kind tallies keep their
	// layout and the benchmark's quiesce_frac metric its source; a change
	// to the benchmark may drop it.
	ResolveQuiesce
	// ResolveConverge: the trial re-joined the golden trajectory — by
	// exact per-cycle digest match, or by the keyframe certificate proving
	// its remaining divergence frozen and unread.
	ResolveConverge
	// ResolveMonitor: a trial-loop monitor fired live (architectural
	// divergence, exception, locked pipeline, or illegal-fetch streak).
	ResolveMonitor
	// ResolveHorizon: the trial stepped the full horizon and classified
	// Gray.
	ResolveHorizon
	// ResolveAnomaly: a watchdog expiry or contained panic ended the
	// attempt.
	ResolveAnomaly
	// NumResolveKinds bounds per-kind count arrays.
	NumResolveKinds
)

func (k ResolveKind) String() string {
	switch k {
	case ResolveTaint:
		return "taint"
	case ResolveQuiesce:
		return "quiescence"
	case ResolveConverge:
		return "convergence"
	case ResolveMonitor:
		return "monitor"
	case ResolveHorizon:
		return "full-horizon"
	case ResolveAnomaly:
		return "anomaly"
	}
	return fmt.Sprintf("resolve(%d)", uint8(k))
}

// ProveMode selects the static benign-injection prover (see Config.Prove).
type ProveMode uint8

// Prover modes.
const (
	ProveOn ProveMode = iota
	ProveOff
)

func (p ProveMode) String() string {
	switch p {
	case ProveOn:
		return "on"
	case ProveOff:
		return "off"
	}
	return fmt.Sprintf("prove(%d)", uint8(p))
}

// ParseProveMode maps a flag value to a ProveMode.
func ParseProveMode(s string) (ProveMode, error) {
	switch s {
	case "on":
		return ProveOn, nil
	case "off":
		return ProveOff, nil
	}
	return 0, fmt.Errorf("core: unknown prove mode %q (want \"on\" or \"off\")", s)
}

// Progress is a campaign progress snapshot delivered to Config.OnProgress.
// Totals are the configured campaign size; a workload that architecturally
// halts before its last checkpoint finishes with CheckpointsDone <
// Checkpoints (the unreached checkpoints produce no trials).
type Progress struct {
	Checkpoints     int
	CheckpointsDone int
	Trials          int64
	TrialsDone      int64
}

func (c *Config) setDefaults() {
	if c.Horizon == 0 {
		c.Horizon = 10_000
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 5_000
	}
	if c.Checkpoints == 0 {
		c.Checkpoints = 20
	}
	if len(c.Populations) == 0 {
		c.Populations = []Population{{Name: "l+r", Trials: 25}}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.TrialTimeout > 0 && c.Clock == nil {
		c.Clock = wallClock
	}
}

// A ConfigError reports one invalid Config field: which field, the value it
// held, and why it is rejected. Validate returns *ConfigError so callers
// (and tests) can match on the offending field with errors.As instead of
// string-scraping.
type ConfigError struct {
	Field  string
	Value  any
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: config.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// Validate rejects configurations that would fail obscurely (or hang)
// mid-campaign, so a misconfigured campaign errors loudly at startup
// instead. It judges the config as the caller supplied it: zero values
// with documented defaults (Checkpoints, Horizon, Workers, ...) are
// accepted, explicitly out-of-range values are not.
// Run calls Validate itself; command-line front ends call it directly to
// reject bad flag combinations before any simulation work starts.
func (c *Config) Validate() error {
	if c.Workload == nil {
		return &ConfigError{Field: "Workload", Value: nil, Reason: "config has no workload"}
	}
	for _, check := range []struct {
		bad    bool
		field  string
		value  any
		reason string
	}{
		{c.Checkpoints < 0, "Checkpoints", c.Checkpoints, "Checkpoints must be >= 1 (0 means the default)"},
		{c.Horizon < 0, "Horizon", c.Horizon, "Horizon must be >= 1 (0 means the default)"},
		{c.WarmupCycles < 0, "WarmupCycles", c.WarmupCycles, "WarmupCycles must be >= 0"},
		{c.Workers < 0, "Workers", c.Workers, "Workers must be >= 0 (0 means all CPUs)"},
		{c.TrialTimeout < 0, "TrialTimeout", c.TrialTimeout, "TrialTimeout must be >= 0 (0 disables the watchdog)"},
		{c.CrossCheck < 0, "CrossCheck", c.CrossCheck, "CrossCheck must be >= 0 (0 disables the oracle)"},
	} {
		if check.bad {
			return &ConfigError{Field: check.field, Value: check.value, Reason: check.reason}
		}
	}
	switch c.EarlyStop {
	case EarlyStopOn, EarlyStopOff:
	default:
		return &ConfigError{Field: "EarlyStop", Value: c.EarlyStop, Reason: "unknown early-stop mode"}
	}
	switch c.Prove {
	case ProveOn, ProveOff:
	default:
		return &ConfigError{Field: "Prove", Value: c.Prove, Reason: "unknown prove mode"}
	}
	if err := validateModel(c.Model); err != nil {
		return err
	}
	c.restrictToModel()
	seen := make(map[string]bool, len(c.Populations))
	for _, p := range c.Populations {
		if p.Name == "" {
			return &ConfigError{Field: "Populations", Value: "", Reason: "population with empty name"}
		}
		if seen[p.Name] {
			return &ConfigError{Field: "Populations", Value: p.Name, Reason: fmt.Sprintf("duplicate population name %q", p.Name)}
		}
		seen[p.Name] = true
		if p.Trials < 0 {
			return &ConfigError{Field: "Populations", Value: p.Trials, Reason: fmt.Sprintf("population %q has negative Trials", p.Name)}
		}
	}
	return nil
}

// Trial records one fault injection.
type Trial struct {
	Outcome    Outcome
	Mode       FailureMode
	Category   state.Category
	Kind       state.Kind
	Elem       string // state element injected (e.g. "rat.spec")
	Bit        int32  // flat bit index within the element
	Cycles     int32  // cycles until classification
	Checkpoint int32
	// Anomaly carries the containment record of an OutAnomaly trial (panic
	// value, stack, injection coordinates); nil for ordinary trials.
	Anomaly *Anomaly
}

// Anomaly is the containment record of a trial the harness had to kill:
// either the injected corruption drove the simulator into a panic on both
// the original attempt and the fresh-restore retry, or the trial watchdog
// expired. It pins the injection coordinates so the anomaly is exactly
// reproducible: re-running the same campaign seed reaches the same
// (checkpoint, element, entry, bit).
type Anomaly struct {
	// Panic is the recovered panic value rendered as text, or the watchdog
	// expiry message.
	Panic string
	// Stack is the goroutine stack at the first contained panic; empty for
	// watchdog expiries.
	Stack string
	// Injection coordinates.
	Elem       string
	Entry      int32
	Bit        int32 // bit index within the entry (Trial.Bit is the flat index)
	Checkpoint int32
	Seed       int64
	// Attempts is how many times the trial was tried before being counted
	// as an anomaly (2 for a persistent panic, 1 for a watchdog expiry).
	Attempts int
}

// ProvenStratum records the static prover's coverage of one population at
// one checkpoint: Proven of Total injectable bits were proven benign (µArch
// Match) and excluded from sampling, and Trials trials were drawn from the
// remainder. Reported rates re-weight each checkpoint's sampled estimate by
// (1 - Proven/Total) and credit the proven mass to the Match bucket — the
// ProvenBenign accounting.
type ProvenStratum struct {
	Checkpoint int
	Proven     uint64
	Total      uint64
	Trials     int
}

// Frac returns the proven population fraction.
func (s ProvenStratum) Frac() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Proven) / float64(s.Total)
}

// PopResult aggregates one population's trials.
type PopResult struct {
	Name   string
	Trials []Trial
	// Proven holds the prover's per-checkpoint coverage strata, in the
	// same order as the trials (each stratum owns the next Trials trials).
	// Empty when the campaign ran with ProveOff: rates then degrade to the
	// plain sampled proportions.
	Proven []ProvenStratum
}

// Total returns the number of trials, anomalies included.
func (p *PopResult) Total() int { return len(p.Trials) }

// AnomalyCount returns the number of contained-anomaly trials.
func (p *PopResult) AnomalyCount() int {
	n := 0
	for _, t := range p.Trials {
		if t.Outcome == OutAnomaly {
			n++
		}
	}
	return n
}

// Classified returns the number of trials that received one of the paper's
// four outcomes — the denominator of every reported rate. Anomalies are an
// injector-side artifact, so they are excluded rather than diluting the
// rates.
func (p *PopResult) Classified() int { return len(p.Trials) - p.AnomalyCount() }

// Anomalies returns the contained-anomaly trials, in campaign order.
func (p *PopResult) Anomalies() []Trial {
	var out []Trial
	for _, t := range p.Trials {
		if t.Outcome == OutAnomaly {
			out = append(out, t)
		}
	}
	return out
}

// OutcomeCounts tallies trials by outcome.
func (p *PopResult) OutcomeCounts() [NumOutcomes]int {
	var c [NumOutcomes]int
	for _, t := range p.Trials {
		c[t.Outcome]++
	}
	return c
}

// ByCategory tallies outcomes per state category (Figures 4, 5, 9).
func (p *PopResult) ByCategory() map[state.Category][NumOutcomes]int {
	out := make(map[state.Category][NumOutcomes]int)
	for _, t := range p.Trials {
		c := out[t.Category]
		c[t.Outcome]++
		out[t.Category] = c
	}
	return out
}

// ModesByCategory tallies failure modes per category (Figures 7, 8, 10).
func (p *PopResult) ModesByCategory() map[state.Category][NumFailureModes]int {
	out := make(map[state.Category][NumFailureModes]int)
	for _, t := range p.Trials {
		if t.Mode == FailNone {
			continue
		}
		c := out[t.Category]
		c[t.Mode]++
		out[t.Category] = c
	}
	return out
}

// ElemStat summarizes one state element's vulnerability.
type ElemStat struct {
	Elem     string
	Category state.Category
	Kind     state.Kind
	Trials   int
	Failures int
}

// FailRate returns the element's failure fraction.
func (e ElemStat) FailRate() float64 {
	if e.Trials == 0 {
		return 0
	}
	return float64(e.Failures) / float64(e.Trials)
}

// ByElement tallies failures per state element, most-vulnerable first (the
// fine-grained version of the paper's "identify vulnerable portions"
// methodology). Elements with fewer than minTrials trials are dropped.
func (p *PopResult) ByElement(minTrials int) []ElemStat {
	agg := make(map[string]*ElemStat)
	for _, t := range p.Trials {
		if t.Outcome == OutAnomaly {
			continue // unclassified; would dilute per-element fail rates
		}
		st := agg[t.Elem]
		if st == nil {
			st = &ElemStat{Elem: t.Elem, Category: t.Category, Kind: t.Kind}
			agg[t.Elem] = st
		}
		st.Trials++
		if t.Outcome == OutSDC || t.Outcome == OutTerminated {
			st.Failures++
		}
	}
	out := make([]ElemStat, 0, len(agg))
	for _, st := range agg { //pipelint:unordered-ok entries are fully sorted below before use
		if st.Trials >= minTrials {
			out = append(out, *st)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].FailRate(), out[j].FailRate()
		if ri != rj {
			return ri > rj
		}
		if out[i].Trials != out[j].Trials {
			return out[i].Trials > out[j].Trials
		}
		return out[i].Elem < out[j].Elem
	})
	return out
}

// strata assembles the stats view of the prover's coverage: per stratum,
// the proven fraction plus how many of its classified trials satisfy the
// predicate. Strata own trials positionally — each ProvenStratum covers the
// next stratum.Trials entries of p.Trials — which survives Merge (both
// slices concatenate in the same order). Returns nil when the prover did
// not run.
func (p *PopResult) strata(pred func(Outcome) bool) []stats.Stratum {
	if len(p.Proven) == 0 {
		return nil
	}
	out := make([]stats.Stratum, 0, len(p.Proven))
	i := 0
	for _, ps := range p.Proven {
		s := stats.Stratum{Proven: ps.Frac()}
		for k := 0; k < ps.Trials && i < len(p.Trials); k++ {
			t := p.Trials[i]
			i++
			if t.Outcome == OutAnomaly {
				continue
			}
			s.Trials++
			if pred(t.Outcome) {
				s.Successes++
			}
		}
		out = append(out, s)
	}
	return out
}

// ProvenFraction returns the mean proven-benign population fraction across
// the prover's strata (0 when the prover did not run).
func (p *PopResult) ProvenFraction() float64 {
	if len(p.Proven) == 0 {
		return 0
	}
	var f float64
	for _, s := range p.Proven {
		f += s.Frac()
	}
	return f / float64(len(p.Proven))
}

// OutcomeRate returns the reported rate of one outcome. With prover strata
// present this is the analytically re-weighted estimate: each checkpoint
// contributes f·[o is Match] + (1-f)·(sampled proportion) — the proven mass
// is µArch Match by proof, so it is credited entirely to the Match bucket
// and scales every sampled bucket by the unproven remainder. Without
// strata it is the plain sampled proportion.
func (p *PopResult) OutcomeRate(o Outcome) float64 {
	if st := p.strata(func(x Outcome) bool { return x == o }); st != nil {
		return stats.StratifiedRate(st, o == OutMatch)
	}
	n := p.Classified()
	if n == 0 {
		return 0
	}
	return float64(p.OutcomeCounts()[o]) / float64(n)
}

// FailureRate returns the rate of known failures (SDC + Terminated):
// analytically re-weighted when prover strata are present (proven mass
// never fails), else the plain fraction of classified trials.
func (p *PopResult) FailureRate() float64 {
	fail := func(o Outcome) bool { return o == OutSDC || o == OutTerminated }
	if st := p.strata(fail); st != nil {
		return stats.StratifiedRate(st, false)
	}
	n := p.Classified()
	if n == 0 {
		return 0
	}
	c := p.OutcomeCounts()
	return float64(c[OutSDC]+c[OutTerminated]) / float64(n)
}

// MaskRate returns the µArch Match rate: analytically re-weighted when
// prover strata are present (the ProvenBenign mass counts toward masking —
// it is µArch Match by proof), else the plain fraction.
func (p *PopResult) MaskRate() float64 {
	if st := p.strata(func(o Outcome) bool { return o == OutMatch }); st != nil {
		return stats.StratifiedRate(st, true)
	}
	n := p.Classified()
	if n == 0 {
		return 0
	}
	return float64(p.OutcomeCounts()[OutMatch]) / float64(n)
}

// WorstCaseCI95 returns the largest 95% CI half-width any of this
// population's reported rates can carry. With prover strata present the
// proven mass contributes no sampling variance, so the worst case shrinks
// by each checkpoint's unproven remainder; without strata it is the plain
// p = 0.5 binomial worst case over the classified trials.
func (p *PopResult) WorstCaseCI95() float64 {
	if st := p.strata(func(Outcome) bool { return false }); st != nil {
		return stats.WorstCaseStratifiedCI95(st)
	}
	return stats.WorstCaseCI95(p.Classified())
}

// ScatterPoint is one checkpoint's utilization/masking datum (Figure 6).
type ScatterPoint struct {
	Checkpoint int
	ValidInsns int // in-flight instructions that eventually commit
	Benign     int // µArch Match + Gray Area trials
	Trials     int
}

// Result is the outcome of a campaign over one workload.
type Result struct {
	Benchmark string
	Protected bool
	// Model is the canonical name of the campaign's fault model ("transient"
	// for the default single-flip model). Merge sets "mixed" when inputs ran
	// different models — their rates then aggregate outcomes of different
	// physical fault shapes.
	Model       string
	Pops        map[string]*PopResult
	Scatter     map[string][]ScatterPoint // per population
	TotalCycles uint64                    // golden end-to-end cycle count
	IPC         float64
	// MixedProtection marks an aggregate built by Merge from results with
	// differing protection configs; its Protected flag (taken from the first
	// input) is then not meaningful for the whole.
	MixedProtection bool
}

// String summarizes the result. Populations are listed in sorted name order
// so the summary is stable across runs.
func (r *Result) String() string {
	s := fmt.Sprintf("%s (ipc %.2f):", r.Benchmark, r.IPC)
	if r.MixedProtection {
		s = fmt.Sprintf("%s (ipc %.2f, mixed protection):", r.Benchmark, r.IPC)
	}
	names := make([]string, 0, len(r.Pops))
	for name := range r.Pops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := r.Pops[name]
		n := p.Classified()
		if n == 0 {
			if a := p.AnomalyCount(); a > 0 {
				s += fmt.Sprintf(" [%s: 0 classified trials, %d anomalies]", name, a)
			} else {
				s += fmt.Sprintf(" [%s: 0 trials]", name)
			}
			continue
		}
		anom := ""
		if a := p.AnomalyCount(); a > 0 {
			anom = fmt.Sprintf(" anom %d", a)
		}
		proven := ""
		if len(p.Proven) > 0 {
			proven = fmt.Sprintf(" proven %.1f%%", 100*p.ProvenFraction())
		}
		s += fmt.Sprintf(" [%s: %d trials, match %.1f%% gray %.1f%% sdc %.1f%% term %.1f%%%s%s]",
			name, n,
			100*p.OutcomeRate(OutMatch),
			100*p.OutcomeRate(OutGray),
			100*p.OutcomeRate(OutSDC),
			100*p.OutcomeRate(OutTerminated),
			proven, anom)
	}
	return s
}

// Merge combines results from multiple benchmarks into one aggregate (the
// paper's "average" bars). Scatter points are concatenated, TotalCycles is
// the sum of the inputs' golden runs, and IPC is the cycle-weighted mean
// (i.e. total retired instructions over total cycles). Protected is taken
// from the first result; if the inputs disagree, MixedProtection is set —
// use MergeStrict to treat that as an error.
func Merge(name string, results []*Result) *Result {
	agg := &Result{
		Benchmark: name,
		Pops:      make(map[string]*PopResult),
		Scatter:   make(map[string][]ScatterPoint),
	}
	var retired float64
	mixedProve := make(map[string]bool)
	for i, r := range results {
		if i == 0 {
			agg.Protected = r.Protected
			agg.Model = r.Model
		} else if r.Protected != agg.Protected {
			agg.MixedProtection = true
		}
		if r.Model != agg.Model {
			agg.Model = "mixed"
		}
		agg.TotalCycles += r.TotalCycles
		retired += r.IPC * float64(r.TotalCycles)
		for pn, p := range r.Pops { //pipelint:unordered-ok each key appears once per input; merge is key-local
			ap := agg.Pops[pn]
			if ap == nil {
				ap = &PopResult{Name: pn}
				agg.Pops[pn] = ap
			}
			ap.Trials = append(ap.Trials, p.Trials...)
			ap.Proven = append(ap.Proven, p.Proven...)
			if len(p.Proven) == 0 && len(p.Trials) > 0 {
				mixedProve[pn] = true
			}
		}
		for pn, pts := range r.Scatter { //pipelint:unordered-ok each key appears once per input; merge is key-local
			agg.Scatter[pn] = append(agg.Scatter[pn], pts...)
		}
	}
	// Strata own their trials positionally; if any input ran without the
	// prover, that pairing would claim the wrong trials, so the aggregate
	// degrades to plain sampled rates instead of misweighting.
	for pn, ap := range agg.Pops { //pipelint:unordered-ok key-local nil-out; no ordered output
		if mixedProve[pn] {
			ap.Proven = nil
		}
	}
	if agg.TotalCycles > 0 {
		agg.IPC = retired / float64(agg.TotalCycles)
	}
	return agg
}

// MergeStrict is Merge, except that mixing protected and unprotected
// results is an error instead of a flag: averaging across protection
// configs silently blends two different machines' vulnerability.
func MergeStrict(name string, results []*Result) (*Result, error) {
	agg := Merge(name, results)
	if agg.MixedProtection {
		return nil, fmt.Errorf("core: merge %q mixes protected and unprotected results", name)
	}
	return agg, nil
}

// Utilization is the average structure occupancy of a fault-free run,
// paired with the benchmark's IPC: the utilization side of the paper's
// Section 3.3 masking correlation.
type Utilization struct {
	Benchmark string
	Samples   int
	Avg       uarch.Utilization
	IPC       float64
}

// MeasureUtilization runs the workload to completion on a golden machine,
// sampling structure occupancies every sampleEvery cycles.
func MeasureUtilization(w *workload.Workload, protect uarch.ProtectConfig, sampleEvery int) (*Utilization, error) {
	if sampleEvery <= 0 {
		sampleEvery = 100
	}
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	ref, err := w.ComputeReference()
	if err != nil {
		return nil, err
	}
	mm := mem.New()
	regs := prog.Load(mm)
	m := uarch.NewOnMemory(uarch.Config{Protect: protect}, mm, ref.Legal, prog.Entry, regs)

	u := &Utilization{Benchmark: w.Name}
	for !m.Halted() && m.Cycle < maxMeasureCycles {
		m.Step()
		if m.Cycle%uint64(sampleEvery) != 0 {
			continue
		}
		s := m.Utilization()
		u.Samples++
		u.Avg.ROB += s.ROB
		u.Avg.Sched += s.Sched
		u.Avg.LQ += s.LQ
		u.Avg.SQ += s.SQ
		u.Avg.FetchQ += s.FetchQ
		u.Avg.StoreBuf += s.StoreBuf
	}
	if !m.Halted() {
		return nil, fmt.Errorf("core: %s did not halt during utilization measurement", w.Name)
	}
	if u.Samples > 0 {
		n := float64(u.Samples)
		u.Avg.ROB /= n
		u.Avg.Sched /= n
		u.Avg.LQ /= n
		u.Avg.SQ /= n
		u.Avg.FetchQ /= n
		u.Avg.StoreBuf /= n
	}
	u.IPC = float64(m.Retired) / float64(m.Cycle)
	return u, nil
}
