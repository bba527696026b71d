package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"

	"pipefault/internal/mem"
	"pipefault/internal/uarch"
)

// Run executes a microarchitectural fault-injection campaign.
//
// The measurement pass runs the workload fault-free to its halt, and the
// checkpoint cycles are drawn from its length. The golden sweep then steps
// the fault-free run once over the union of the checkpoint windows,
// capturing each checkpoint's portable image (bit-store snapshot + memory
// image) and recording its golden run. When a window closes it hands the
// checkpoint to one of Config.Workers goroutines over an unbuffered
// channel, and the worker runs it whole: proof, cross-check and every
// trial. A checkpoint's trials depend only on (Seed, checkpoint index) and
// aggregation folds in checkpoint order, so the assembled Result is
// bit-identical for any worker count.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with graceful cancellation. When ctx is cancelled the
// engine stops dispatching, checkpoints already running complete and
// are aggregated (and journaled, if Config.JournalPath is set), and
// RunContext returns the partial Result together with a *CanceledError
// reporting how much of the campaign finished. Every checkpoint present
// in the partial Result is complete — its trials are exactly what an
// uninterrupted run would have produced for it.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return start(ctx, cfg, false)
}

// Resume continues an interrupted campaign from its journal
// (Config.JournalPath). The journal's header must match the campaign's
// identity (workload, seed, schedule, populations, protection — see
// ErrJournalMismatch); scheduling knobs may differ. Journal-complete
// checkpoints are replayed instead of re-run, every other checkpoint is
// run whole, and because trial seeding depends only on (Seed, checkpoint)
// the resumed Result is byte-identical in its exports to an uninterrupted
// run's. Resuming a journal that is already complete runs no trials.
func Resume(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.JournalPath == "" {
		return nil, &ConfigError{Field: "JournalPath", Value: "", Reason: "Resume requires a campaign journal path"}
	}
	return start(ctx, cfg, true)
}

// campaignSetup is what every campaign entry point derives from a Config
// before it simulates: the validated, defaulted config and a factory for
// fresh machines at reset.
type campaignSetup struct {
	cfg        Config
	newMachine func() *uarch.Machine
}

// setupCampaign validates and defaults cfg, assembles the workload's
// program and architectural reference, and returns the machine factory.
// Shared by start, SurveyProofs and SurveyCategoryBits, so all three see
// the machine a campaign with the same config would run.
func setupCampaign(cfg Config) (*campaignSetup, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	prog, err := cfg.Workload.Program()
	if err != nil {
		return nil, err
	}
	ref, err := cfg.Workload.ComputeReference()
	if err != nil {
		return nil, err
	}
	ucfg := uarch.Config{Protect: cfg.Protect, Recovery: cfg.Recovery}
	return &campaignSetup{cfg: cfg, newMachine: func() *uarch.Machine {
		mm := mem.New()
		regs := prog.Load(mm)
		return uarch.NewOnMemory(ucfg, mm, ref.Legal, prog.Entry, regs)
	}}, nil
}

// schedule runs the measurement pass — the end-to-end fault-free run — and
// draws the checkpoint cycles from its length. It returns the halted
// measurement machine, the checkpoint cycles, and warm: a clone of the
// measurement machine at WarmupCycles, where the checkpoint window opens,
// or nil when the workload halts before it. Walks over the schedule start
// from warm (see walkStart), so no campaign steps the fault-free prefix
// twice.
func (s *campaignSetup) schedule() (meas, warm *uarch.Machine, cycles []uint64, err error) {
	meas = s.newMachine()
	if walkTo(meas, min(uint64(s.cfg.WarmupCycles), maxMeasureCycles)) {
		warm = meas.Clone()
	}
	meas.Run(maxMeasureCycles - meas.Cycle)
	if !meas.Halted() {
		return nil, nil, nil, fmt.Errorf("core: %s did not halt within %d cycles", s.cfg.Workload.Name, uint64(maxMeasureCycles))
	}
	// The window bound keeps 2,000 cycles of slack past the trial horizon,
	// so checkpoint schedules stay those of campaigns whose golden runs
	// stepped that far.
	cycles, err = selectCheckpoints(&s.cfg, meas.Cycle, uint64(s.cfg.Horizon+2000))
	return meas, warm, cycles, err
}

// walkTo steps m until it reaches cycle cyc or halts, and reports whether
// it is still running. Every walk over a checkpoint schedule — the
// golden sweep, the warm-up of the measurement pass — goes
// through it.
func walkTo(m *uarch.Machine, cyc uint64) bool {
	for m.Cycle < cyc && !m.Halted() {
		m.Step()
	}
	return !m.Halted()
}

// walkStart returns the machine a walk over cycles starts from: warm, the
// measurement pass's clone at the warm-up, when it stands at or before the
// first checkpoint; otherwise a fresh machine at reset. Reset covers
// selectCheckpoints' short-workload window (which opens at a tenth of the
// run, possibly before the warm-up), a workload that halts before the
// warm-up (warm is nil), and synthetic test schedules.
func walkStart(warm *uarch.Machine, newMachine func() *uarch.Machine, cycles []uint64) *uarch.Machine {
	if warm != nil && len(cycles) > 0 && warm.Cycle <= cycles[0] {
		return warm
	}
	return newMachine()
}

// start validates, runs the measurement pass, selects checkpoint cycles
// and hands off to the campaign engine (runCampaign). It is shared by
// RunContext and Resume.
func start(ctx context.Context, cfg Config, resume bool) (*Result, error) {
	s, err := setupCampaign(cfg)
	if err != nil {
		return nil, err
	}
	meas, warm, cycles, err := s.schedule()
	if err != nil {
		return nil, err
	}
	cfg = s.cfg
	for _, pop := range cfg.Populations {
		if meas.F.InjectableBits(pop.LatchOnly) == 0 {
			return nil, fmt.Errorf("core: population %q has no injectable bits", pop.Name)
		}
	}

	res := &Result{
		Benchmark:   cfg.Workload.Name,
		Protected:   cfg.Protect.Any(),
		Model:       resolveModel(cfg.Model).String(),
		Pops:        make(map[string]*PopResult, len(cfg.Populations)),
		Scatter:     make(map[string][]ScatterPoint, len(cfg.Populations)),
		TotalCycles: meas.Cycle,
		IPC:         float64(meas.Retired) / float64(meas.Cycle),
	}
	for _, p := range cfg.Populations {
		res.Pops[p.Name] = &PopResult{Name: p.Name}
	}
	return runCampaign(ctx, cfg, s.newMachine, warm, cycles, res, resume)
}

// selectCheckpoints draws the campaign's checkpoint cycles from the seeded
// RNG, confined to the window where span cycles (a full trial horizon plus
// slack) fit before the workload halts. Shared by the campaign entry point
// and SurveyProofs so a survey inspects the exact schedule a campaign with
// the same config would run.
func selectCheckpoints(cfg *Config, total, span uint64) ([]uint64, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	lo := uint64(cfg.WarmupCycles)
	hi := uint64(0)
	if total > span+500 {
		hi = total - span - 500
	}
	if hi <= lo {
		lo = total / 10
		hi = total / 2
		if hi <= lo {
			return nil, fmt.Errorf("core: %s too short (%d cycles) for checkpointing", cfg.Workload.Name, total)
		}
	}
	cycles := make([]uint64, cfg.Checkpoints)
	for i := range cycles {
		cycles[i] = lo + uint64(rng.Int63n(int64(hi-lo)))
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	return cycles, nil
}

// runCampaign runs the engine over preselected checkpoint cycles. It is
// the internal entry point below cycle selection, so tests can drive the
// engine with synthetic checkpoint schedules (e.g. cycles past the
// architectural halt). warm is the measurement pass's warm-up clone, or
// nil; the sweep starts from it when walkStart allows. It owns the
// campaign journal: opened (or, on resume, replayed then reopened for
// append) here, written by the engine's aggregation loop, closed on the
// way out.
func runCampaign(ctx context.Context, cfg Config, newMachine func() *uarch.Machine, warm *uarch.Machine, cycles []uint64, res *Result, resume bool) (*Result, error) {
	totalPerCk := 0
	for _, p := range cfg.Populations {
		totalPerCk += p.Trials
	}
	prior := emptyPrior(len(cycles), totalPerCk)
	var jw *campaignJournal
	if cfg.JournalPath != "" {
		hdr := journalHeaderFor(&cfg)
		if resume {
			p, err := readJournal(cfg.JournalPath, hdr, len(cycles), totalPerCk)
			if err != nil {
				return nil, err
			}
			prior = p
		}
		var err error
		jw, err = openJournal(cfg.JournalPath, hdr, resume)
		if err != nil {
			return nil, err
		}
	}
	res, err := runPool(ctx, cfg, newMachine, walkStart(warm, newMachine, cycles), cycles, res, prior, jw)
	if jerr := jw.close(); err == nil && jerr != nil {
		err = jerr
	}
	return res, err
}

// engineGuard collects the first panic that escapes a worker goroutine
// outside the per-trial containment boundary (engine scaffolding bugs,
// golden-run panics). It exists so an engine bug fails the campaign with
// a stack instead of crashing the process or deadlocking the campaign.
type engineGuard struct {
	mu  sync.Mutex
	err error
}

// capture is deferred directly inside worker goroutines; after runs when
// a panic was recovered (the engine passes its context cancel so the
// sweep and sibling workers drain instead of waiting forever).
func (g *engineGuard) capture(what string, after func()) {
	r := recover()
	if r == nil {
		return
	}
	g.mu.Lock()
	if g.err == nil {
		g.err = fmt.Errorf("core: %s panicked outside trial containment: %v\n%s", what, r, debug.Stack())
	}
	g.mu.Unlock()
	after()
}

func (g *engineGuard) get() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// popStarts returns the flat-layout start offset of each population (with
// the total as the trailing element).
func popStarts(cfg *Config) []int {
	popStart := make([]int, len(cfg.Populations)+1)
	for i, p := range cfg.Populations {
		popStart[i+1] = popStart[i] + p.Trials
	}
	return popStart
}

// progressTracker funnels aggregation-side completion counts into the
// user's OnProgress callback. It is only ever touched from the aggregation
// goroutine, so it needs no locking.
type progressTracker struct {
	cb   func(Progress)
	snap Progress
}

func newProgressTracker(cfg Config, checkpoints int) *progressTracker {
	t := &progressTracker{cb: cfg.OnProgress}
	t.snap.Checkpoints = checkpoints
	var perCk int64
	for _, p := range cfg.Populations {
		perCk += int64(p.Trials)
	}
	t.snap.Trials = perCk * int64(checkpoints)
	return t
}

// add records trialsDone more finished trials (and, when ckDone, one more
// finished checkpoint) and invokes the callback. Counts are maintained
// even without a callback — cancellation reports them in CanceledError.
func (t *progressTracker) add(trialsDone int, ckDone bool) {
	if t == nil {
		return
	}
	t.snap.TrialsDone += int64(trialsDone)
	if ckDone {
		t.snap.CheckpointsDone++
	}
	if t.cb != nil {
		t.cb(t.snap)
	}
}
