package core

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"pipefault/internal/prove"
	"pipefault/internal/state"
	"pipefault/internal/uarch"
)

// maxMeasureCycles bounds the end-to-end golden measurement pass.
const maxMeasureCycles = 30_000_000

// watchdogStride is how many trial cycles pass between wall-clock reads of
// the trial watchdog (power of two; the check is a masked compare). Coarse
// enough to keep the clock off the per-cycle hot path, fine enough that a
// livelocked trial dies within tens of microseconds of its budget.
const watchdogStride = 64

// wallClock is the default trial-watchdog time source (monotonic-enough
// nanoseconds). The watchdog is the one sanctioned wall-clock input in the
// campaign engine: its only effect is to kill a livelocked trial, which is
// then counted OutAnomaly — outside the deterministic four-outcome rates.
func wallClock() int64 {
	return time.Now().UnixNano() //pipelint:wallclock-ok trial watchdog liveness check; expiries classify as OutAnomaly outside the deterministic four-outcome rates
}

// convStride is the cycle spacing of convergence keyframes along the
// golden continuation (power of two; the trial loop's boundary test is a
// masked compare). Smaller strides prove frozen-delta trials earlier but
// cost one state-file snapshot each; 512 keeps a 10k-cycle horizon at ~20
// keyframes (~0.6 MiB on the default machine) while bounding the wasted
// stepping of a provable trial to under half a keyframe interval on
// average.
const convStride = 512

// keyframe is one golden trajectory keyframe: the full state-file contents
// and the memory digest after cycle cyc of the continuation. The trial
// loop diffs its own state against the keyframe to compute the exact set
// of entries still differing from the golden run (see tryConverge).
type keyframe struct {
	cyc       uint64
	snap      *state.Snapshot
	memDigest uint64
}

// goldenRun is a checkpoint's fault-free continuation: the per-cycle
// whole-machine trajectory digest and the retired-instruction trace. The
// worker running a checkpoint records it once, then reads it for every
// trial of that checkpoint.
type goldenRun struct {
	digests []uint64 // composite digest (state ^ memory) after cycle i+1
	events  []uarch.RetireEvent

	// Early-stop liveness data (EarlyStopOn, or the prover): the golden
	// continuation's touch trace over every entry, its first retiring
	// exception, and the per-cycle retire and illegal-fetch bits the
	// trial-loop monitors read. A trial whose flipped entry is overwritten
	// before the golden run ever reads it behaves bit-identically to the
	// golden run, so its outcome is a pure function of these fields (see
	// (*worker).resolveDead); firstFailure replays the monitors over them.
	// traced gates the fast path: goldens built without tracing
	// (EarlyStopOff with ProveOff, non-transient models) leave it false and
	// every trial takes the full loop.
	trace       *state.TouchTrace
	excAt       uint64 // first cycle an exception reaches retirement
	excMode     FailureMode
	retireBits  []uint64 // bit (c-1): >=1 instruction retired at cycle c
	illegalBits []uint64 // bit (c-1): FetchStalledIllegal() after cycle c
	failAt      uint64   // firstFailure(0, streaks{}, horizonG)
	failMode    FailureMode
	traced      bool

	// Convergence-certificate data (EarlyStopOn): state keyframes at
	// convStride boundaries up to the trial horizon, plus cumulative
	// retire-event counts, which let tryConverge check that a trial's
	// retirement stream is aligned with the golden run's. conv gates the
	// certificate exactly as traced gates the taint paths.
	conv      bool
	keyframes []keyframe
	evCount   []uint32 // evCount[c-1] = len(events) after cycle c
}

// bitAt reads cycle c's flag from a per-cycle bitset.
func bitAt(bits []uint64, c uint64) bool {
	return bits[(c-1)>>6]>>((c-1)&63)&1 == 1
}

// setBitAt sets cycle c's flag in a pre-sized per-cycle bitset.
func setBitAt(bits []uint64, c uint64) {
	bits[(c-1)>>6] |= 1 << ((c - 1) & 63)
}

// lockedCycles is the no-retirement deadlock-detection horizon. The paper
// uses 100; we use 200 so the timeout-flush protection (which fires at 100)
// gets a chance to recover before the monitor declares deadlock.
const lockedCycles = 200

// itlbStreak is how many consecutive cycles fetch must stall on an illegal
// address before the iTLB monitor fires.
const itlbStreak = 30

// streaks is the state of the two counting monitors of Section 2.2: cycles
// since the last retirement and consecutive illegal-fetch stalls. The live
// trial loop and every closed-form replay (firstFailure) advance it through
// step, so the thresholds and their same-cycle order exist once.
type streaks struct {
	noRetire, illegal int
}

// step advances both streaks by one cycle — retired: at least one
// instruction retired this cycle; illegal: fetch is stalled on an illegal
// address after it — and reports the monitor that fires, locked before iTLB
// when both reach their thresholds on the same cycle.
func (s *streaks) step(retired, illegal bool) FailureMode {
	if retired {
		s.noRetire = 0
	} else {
		s.noRetire++
	}
	if illegal {
		s.illegal++
	} else {
		s.illegal = 0
	}
	switch {
	case s.noRetire >= lockedCycles:
		return FailLocked
	case s.illegal >= itlbStreak:
		return FailITLB
	}
	return FailNone
}

// firstFailure replays the trial loop's failure monitors over the traced
// golden run's cycles (from, h], starting from streak state st: on each
// cycle a retiring exception wins, then st.step runs on the recorded retire
// and illegal-fetch bits. It returns the first cycle a monitor fires and its
// mode, or 0 when none fires by h. h must not exceed the golden horizon.
func (g *goldenRun) firstFailure(from uint64, st streaks, h uint64) (uint64, FailureMode) {
	for c := from + 1; c <= h; c++ {
		if c == g.excAt {
			return c, g.excMode
		}
		if fm := st.step(bitAt(g.retireBits, c), bitAt(g.illegalBits, c)); fm != FailNone {
			return c, fm
		}
	}
	return 0, FailNone
}

// trialMonitor is the per-trial divergence/exception classifier state. It
// lives on the worker (not in per-trial closures) so the retire/exception
// callbacks are built once per worker and a trial costs zero allocations.
type trialMonitor struct {
	g          *goldenRun
	diverged   bool
	outOfTrace bool
	idx        int
	mode       FailureMode
	excMode    FailureMode
}

// reset re-arms the monitor for a new trial against golden run g.
func (t *trialMonitor) reset(g *goldenRun) {
	t.g = g
	t.diverged = false
	t.outOfTrace = false
	t.idx = 0
	t.mode = FailNone
	t.excMode = FailNone
}

// onRetire compares one retirement against the golden trace (the Section
// 2.2 architectural-divergence checks).
func (t *trialMonitor) onRetire(ev uarch.RetireEvent) {
	if t.diverged || t.outOfTrace {
		return
	}
	if t.idx >= len(t.g.events) {
		t.outOfTrace = true
		return
	}
	ge := t.g.events[t.idx]
	t.idx++
	switch {
	case ev.PC != ge.PC || ev.Kind != ge.Kind:
		t.mode, t.diverged = FailCtrl, true
	case ev.Kind == uarch.RetReg && (ev.Dest != ge.Dest || ev.Value != ge.Value):
		t.mode, t.diverged = FailRegfile, true
	case ev.Kind == uarch.RetStore &&
		(ev.Addr != ge.Addr || ev.Data != ge.Data || ev.Size != ge.Size):
		t.mode, t.diverged = FailMem, true
	case ev.Kind == uarch.RetPal && ev.PalFn != ge.PalFn:
		t.mode, t.diverged = FailCtrl, true
	case ev.Kind == uarch.RetPal && ev.Value != ge.Value:
		t.mode, t.diverged = FailRegfile, true
	}
}

// onExc records the first exception reaching retirement.
func (t *trialMonitor) onExc(ev uarch.ExcEvent) {
	if t.excMode != FailNone {
		return
	}
	switch ev.Kind {
	case uarch.ExcDTLB:
		t.excMode = FailDTLB
	default:
		t.excMode = FailExcept
	}
}

// worker runs golden continuations and trials on a private machine. Every
// worker serves arbitrary checkpoints by materializing their portable
// images, and g points at the current checkpoint's golden run (read-only
// once recorded). Workers never share mutable state.
type worker struct {
	cfg Config
	m   *uarch.Machine
	//pipelint:shadow-ok resolved fault model from Config.Model; campaign parameter, not injectable machine state
	model FaultModel
	//pipelint:shadow-ok golden-run horizon derived from the schedule, not injectable machine state
	horizonG uint64
	//pipelint:shadow-ok current golden run (being recorded, or read-only for trials); engine scaffolding
	g *goldenRun
	//pipelint:shadow-ok per-trial classifier scratch, reset each trial; never injectable machine state
	mon trialMonitor
	//pipelint:shadow-ok reusable rewind marks for the undo journal; engine scaffolding
	ckMark uarch.MarkPoint
	//pipelint:shadow-ok reusable rewind marks for the undo journal; engine scaffolding
	trialMark uarch.MarkPoint

	// Callbacks built once per worker and re-attached per golden run/trial.
	onGolden func(uarch.RetireEvent)
	onRetire func(uarch.RetireEvent)
	onExc    func(uarch.ExcEvent)
}

// newWorker wires up a worker's reusable buffers and callbacks.
func newWorker(cfg Config, m *uarch.Machine, horizonG uint64) *worker {
	w := &worker{cfg: cfg, m: m, horizonG: horizonG, model: resolveModel(cfg.Model)}
	w.onGolden = func(ev uarch.RetireEvent) { w.g.events = append(w.g.events, ev) }
	w.onRetire = w.mon.onRetire
	w.onExc = w.mon.onExc
	return w
}

// goldenContinuation steps the worker's machine through the fault-free
// continuation and returns the per-cycle digests and retirement trace.
// Under EarlyStopOn (or with the prover on) it additionally records the
// liveness data the closed-form trial classifier needs: a first-touch
// trace over injectable entries, the first retiring exception, and the
// per-cycle retire and illegal-fetch bits that firstFailure replays the
// trial-loop monitors over. The monitor probes (FetchStalledIllegal,
// retire accounting) run with the trace attached, so every state read a
// trial's per-cycle classification would perform is captured — the
// soundness condition for treating an unread-then-overwritten entry as
// dead. The caller rewinds the machine afterwards.
func (w *worker) goldenContinuation() *goldenRun {
	m := w.m
	g := &goldenRun{digests: make([]uint64, 0, w.horizonG)}
	w.g = g
	m.OnRetire = w.onGolden
	// The prover consumes the same liveness data as the taint fast path, so
	// either consumer arms the trace. Tracing is pure observation — it
	// changes which trials are *drawn* only through the proof, never how a
	// drawn trial executes. Convergence additionally records keyframes and
	// the cumulative event counts its certificate checks. Both consumers
	// assume a one-shot fault, so non-transient models (whose Reassert keeps
	// re-corrupting state) leave the trace and certificate unarmed: their
	// trials run the full loop (see runTrial's armed gating).
	transient := w.model.Transient()
	conv := transient && w.cfg.EarlyStop == EarlyStopOn
	traced := conv || w.cfg.Prove != ProveOff
	var cyc uint64
	if traced {
		g.trace = m.F.NewTouchTrace()
		m.F.StartTrace(g.trace)
		m.OnExc = func(ev uarch.ExcEvent) {
			if g.excAt != 0 {
				return
			}
			g.excAt = cyc
			if ev.Kind == uarch.ExcDTLB {
				g.excMode = FailDTLB
			} else {
				g.excMode = FailExcept
			}
		}
		nw := int(w.horizonG+63) / 64
		g.retireBits = make([]uint64, nw)
		g.illegalBits = make([]uint64, nw)
	}
	if conv {
		g.evCount = make([]uint32, 0, w.horizonG)
	}
	lastRetired := m.Retired
	for cyc = 1; cyc <= w.horizonG; cyc++ {
		if traced {
			m.F.TraceCycle(cyc)
		}
		m.Step()
		g.digests = append(g.digests, m.TraceDigest())
		if !traced {
			continue
		}
		if m.Retired > lastRetired {
			lastRetired = m.Retired
			setBitAt(g.retireBits, cyc)
		}
		if m.FetchStalledIllegal() {
			setBitAt(g.illegalBits, cyc)
		}
		if conv {
			g.evCount = append(g.evCount, uint32(len(g.events)))
			if cyc&(convStride-1) == 0 && cyc <= uint64(w.cfg.Horizon) {
				g.keyframes = append(g.keyframes, keyframe{
					cyc:       cyc,
					snap:      m.F.Snapshot(),
					memDigest: m.Mem.Digest(),
				})
			}
		}
	}
	if traced {
		m.F.StopTrace()
		m.OnExc = nil
		g.failAt, g.failMode = g.firstFailure(0, streaks{}, w.horizonG)
	}
	m.OnRetire = nil
	g.traced = traced
	g.conv = conv
	return g
}

// checkpointSeed derives the per-checkpoint RNG seed from the campaign seed
// and the checkpoint index via two splitmix64 rounds. Trials therefore
// depend only on (Seed, checkpoint index), never on which worker executes
// the checkpoint or in what order — the determinism contract that makes
// Workers:1 and Workers:N bit-identical.
func checkpointSeed(seed int64, ck int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) ^ uint64(ck)))
}

// splitmix64 is the SplitMix64 finalizer (Steele et al.), a bijective
// avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// computeProof runs the static benign-injection prover over the machine's
// current (checkpoint) state and the freshly recorded golden run, or
// returns nil under ProveOff. The machine must be rewound to checkpoint
// state and the trace detached — the idleness rule reads gate values as of
// the checkpoint.
func (w *worker) computeProof(g *goldenRun) *prove.Proof {
	if w.cfg.Prove == ProveOff {
		return nil
	}
	h := w.cfg.Horizon
	if n := len(g.digests); h > n {
		h = n
	}
	return prove.Compute(w.m.F, g.trace, g.failAt, uint64(h), uarch.ProofHints(), prove.RuleAll)
}

// provenStrata snapshots the proof's per-population coverage for the
// analytic re-weighting (nil proof means no strata: rates stay plain).
func provenStrata(p *prove.Proof, ck int, pops []Population) []ProvenStratum {
	if p == nil {
		return nil
	}
	out := make([]ProvenStratum, len(pops))
	for i, pop := range pops {
		out[i] = ProvenStratum{
			Checkpoint: ck,
			Proven:     p.ProvenBits(pop.LatchOnly),
			Total:      p.TotalBits(pop.LatchOnly),
			Trials:     pop.Trials,
		}
	}
	return out
}

// drawBit draws one trial's injection target: from the proof's
// must-simulate population when the prover ran, else from the full
// population. The proof is always computed over the drawing worker's own
// state file, so its bits name that worker's elements.
func drawBit(f *state.File, proof *prove.Proof, rng *rand.Rand, latchOnly bool) state.BitRef {
	if proof != nil {
		return proof.RandomBit(rng, latchOnly)
	}
	return f.RandomBit(rng, latchOnly)
}

// crossCheckSalt decorrelates the cross-check oracle's RNG stream from the
// checkpoint's trial stream.
const crossCheckSalt = 0x636865636b // "check"

// crossCheck is the campaign's runtime soundness oracle (Config.CrossCheck).
// It runs after a checkpoint's golden run and proof, before its trials,
// and checks every shortcut the engine takes against the unaccelerated
// reference. Sample k sits at trial coordinates (ck, -1-k), drawn from one
// salted stream that depends only on (Seed, ck), so Workers never
// changes which bits are checked:
//
//   - a must-simulate bit, drawn exactly like a campaign trial, is run
//     under the campaign's own config and again with EarlyStopOff; the two
//     must agree on outcome, failure mode and classification cycle. This
//     checks dead-entry resolution, convergence and the fault model's
//     gating of each. A sample where either run is an anomaly
//     (watchdog expiry, contained panic) is skipped: those are not
//     classifications;
//   - when a proof exists, one proven-benign bit is run full-horizon with
//     EarlyStopOff and must classify µArch Match — the claim every proof
//     rule makes.
//
// The machine must sit at checkpoint state with no journal bracket open
// (worker.golden closes its own). Each check trial rewinds through the
// containment boundary ordinary trials use, so the oracle perturbs
// nothing; it can only abort the campaign.
func (w *worker) crossCheck(ck int, proof *prove.Proof) error {
	if w.cfg.CrossCheck <= 0 {
		return nil
	}
	m := w.m
	m.BeginJournal()
	m.Mem.BeginUndo()
	mode := w.cfg.EarlyStop
	defer func() {
		w.cfg.EarlyStop = mode
		m.CommitJournal()
		m.Mem.Rollback()
	}()
	rng := rand.New(rand.NewSource(checkpointSeed(w.cfg.Seed, ck) ^ crossCheckSalt))
	for k := 0; k < w.cfg.CrossCheck; k++ {
		idx := -1 - k
		bit := drawBit(m.F, proof, rng, false)
		w.cfg.EarlyStop = mode
		got := w.runTrialContained(bit, ck, idx)
		w.cfg.EarlyStop = EarlyStopOff
		ref := w.runTrialContained(bit, ck, idx)
		if got.Outcome != OutAnomaly && ref.Outcome != OutAnomaly &&
			(got.Outcome != ref.Outcome || got.Mode != ref.Mode || got.Cycles != ref.Cycles) {
			return w.crossCheckError(ck, idx, bit, "", got, ref)
		}
		if proof == nil {
			continue
		}
		bit, ok := proof.ProvenSample(rng, false)
		if !ok {
			continue // nothing proven at this checkpoint
		}
		if sim := w.runTrialContained(bit, ck, idx); sim.Outcome != OutMatch {
			rule, _ := proof.Proven(bit)
			return w.crossCheckError(ck, idx, bit, rule.String(), Trial{Outcome: OutMatch}, sim)
		}
	}
	return nil
}

// crossCheckError assembles the oracle's failure report.
func (w *worker) crossCheckError(ck, idx int, bit state.BitRef, rule string, got, ref Trial) *CrossCheckError {
	return &CrossCheckError{
		Checkpoint: ck,
		Index:      idx,
		Model:      w.model.String(),
		Elem:       bit.Elem.Name(),
		Entry:      bit.Entry,
		Bit:        bit.Bit,
		Rule:       rule,
		Outcome:    got.Outcome,
		Mode:       got.Mode,
		Cycles:     got.Cycles,
		RefOutcome: ref.Outcome,
		RefMode:    ref.Mode,
		RefCycles:  ref.Cycles,
	}
}

// A CrossCheckError reports a soundness violation caught by the runtime
// oracle (Config.CrossCheck): a shortcut's classification of one sampled
// bit disagrees with the unaccelerated full-horizon reference. It aborts
// the campaign — an unsound shortcut or proof means the rates cannot be
// trusted.
type CrossCheckError struct {
	Checkpoint int
	Index      int // oracle sample coordinate, -1-k for sample k
	Model      string
	Elem       string
	Entry      int
	Bit        int
	// Rule is the proof rule that claimed the bit benign; empty for a
	// must-simulate sample.
	Rule string
	// The claimed classification: the campaign's own run, or µArch Match
	// for a proven-benign bit.
	Outcome Outcome
	Mode    FailureMode
	Cycles  int32
	// The full-horizon reference run's classification.
	RefOutcome Outcome
	RefMode    FailureMode
	RefCycles  int32
}

func (e *CrossCheckError) Error() string {
	at := fmt.Sprintf("core: cross-check failed at checkpoint %d trial %d: model %s at %s[%d].%d",
		e.Checkpoint, e.Index, e.Model, e.Elem, e.Entry, e.Bit)
	if e.Rule != "" {
		return fmt.Sprintf("%s proven benign by rule %s but simulated to %v/%v in %d cycles",
			at, e.Rule, e.RefOutcome, e.RefMode, e.RefCycles)
	}
	return fmt.Sprintf("%s classified %v/%v in %d cycles, full-horizon reference says %v/%v in %d cycles",
		at, e.Outcome, e.Mode, e.Cycles, e.RefOutcome, e.RefMode, e.RefCycles)
}

// testTrialHook, when non-nil, runs inside the containment boundary at the
// start of each trial attempt, keyed by (checkpoint, flat trial index,
// attempt). Test-only: the containment tests install panicking hooks to
// emulate a corrupted trial wedging the simulator. Installed hooks must be
// safe for concurrent calls.
var testTrialHook func(ck, idx, attempt int)

// attemptTrial runs one trial attempt inside a recover boundary. A panic
// anywhere in the injected machine's execution (bit-store, memory system,
// ECC decode, pipeline stages) surfaces as a non-nil pv plus the captured
// stack instead of unwinding into the campaign engine. runTrial's own
// defer detaches the retire/exception callbacks during the unwind, so the
// machine carries no observer wiring into the rollback.
func (w *worker) attemptTrial(bit state.BitRef, ck, idx, attempt int) (trial Trial, pv any, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			pv = r
			stack = debug.Stack()
		}
	}()
	if testTrialHook != nil {
		testTrialHook(ck, idx, attempt)
	}
	trial = w.runTrial(bit, ck, idx)
	return trial, nil, nil
}

// runTrialContained is the containment boundary around one trial: mark the
// rewind point, run the trial with panics recovered, and roll the machine
// back whether the trial classified, panicked or hit the watchdog. The
// rollback replays the state-file undo journal, which a mid-Step panic
// cannot corrupt:
// the journal is an append-only first-touch log, complete for every word
// the doomed trial dirtied. A panicking trial is retried once on the
// freshly restored state — the machine is deterministic, so a recurring
// panic confirms the anomaly is a property of the injection, not a
// one-shot artifact — and a second panic records the trial as OutAnomaly,
// carrying the panic value, stack and injection coordinates, instead of
// taking down the campaign. Containment adds zero perturbation: the RNG
// stream is untouched (the bit was drawn by the caller) and rollback
// restores the exact pre-trial state, so subsequent trials are bit-
// identical to an anomaly-free run's.
func (w *worker) runTrialContained(bit state.BitRef, ck, idx int) Trial {
	m := w.m
	for attempt := 0; ; attempt++ {
		tmark := m.Mem.Mark()
		m.Mark(&w.trialMark)
		trial, pv, stack := w.attemptTrial(bit, ck, idx, attempt)
		m.RollbackTo(&w.trialMark)
		m.Mem.RollbackTo(tmark)
		if pv == nil {
			trial.Checkpoint = int32(ck)
			if trial.Anomaly != nil {
				trial.Anomaly.Checkpoint = int32(ck)
			}
			return trial
		}
		if attempt == 0 {
			continue // retry once on the fresh restore before counting it
		}
		return Trial{
			Outcome:    OutAnomaly,
			Category:   bit.Elem.Category(),
			Kind:       bit.Elem.Kind(),
			Elem:       bit.Elem.Name(),
			Bit:        int32(bit.Entry*bit.Elem.Width() + bit.Bit),
			Checkpoint: int32(ck),
			Anomaly: &Anomaly{
				Panic:      fmt.Sprint(pv),
				Stack:      string(stack),
				Elem:       bit.Elem.Name(),
				Entry:      int32(bit.Entry),
				Bit:        int32(bit.Bit),
				Checkpoint: int32(ck),
				Seed:       w.cfg.Seed,
				Attempts:   attempt + 1,
			},
		}
	}
}

// resolveDead decides, without flipping the bit or stepping the machine,
// whether the trial's outcome is already determined by the golden run's
// liveness trace — and if so, what it is.
//
// Eligibility: let r be the first golden cycle that READS the flipped
// entry and cw the first that WRITES it (0 = never). If the golden run
// never reads the entry before (re)writing it, the trial's machine reads
// exactly the values the golden machine reads, cycle for cycle: control
// flow, retirement events, memory traffic and every other write are
// bit-identical, so the corruption confines itself to the one entry until
// cw overwrites it with the golden value (a golden no-op write still
// clears the trial's corruption — the trial writes the same computed value
// over its corrupted copy — which is why the trace records writes before
// the value-unchanged early-out). A same-cycle read (r == cw) is
// conservatively ineligible: intra-cycle ordering is not traced.
//
// For an eligible trial the loop's classification is a closed form: the
// per-cycle digest compare first succeeds at cw (before cw the trial
// digest differs from golden by the flipped entry's contribution, which is
// nonzero because mix(pos, ·) is injective), and the exception / locked /
// iTLB monitors fire exactly when the golden run's own monitors would —
// at g.failAt, the firstFailure replay from checkpoint state. The loop
// checks the monitors before the digest within a cycle, so the monitor
// wins at failAt unless the overwrite comes strictly earlier. No event
// within the horizon means Gray at the horizon, exactly like a
// full-horizon run. The architectural-divergence check can never fire
// before cw (events are identical), so it never wins.
func (w *worker) resolveDead(bit state.BitRef, horizon int) (outcome Outcome, mode FailureMode, cycles int, ok bool) {
	g := w.g
	if !bit.Elem.Injectable() {
		return 0, FailNone, 0, false
	}
	key := bit.Elem.EntryIndex(bit.Entry)
	h := uint64(horizon)
	matchAt, dead := g.trace.ProvenDead(key, h)
	if !dead {
		return 0, FailNone, 0, false // golden reads the entry while corrupt
	}
	if at := g.failAt; at != 0 && at <= h && (matchAt == 0 || at <= matchAt) {
		return g.failMode.Outcome(), g.failMode, int(at), true
	}
	if matchAt != 0 {
		return OutMatch, FailNone, int(matchAt), true
	}
	return OutGray, FailNone, horizon, true
}

// runTrial arms the campaign's fault model at one bit and monitors the
// machine against the golden continuation, implementing the Section 2.2
// classification. (ck, idx) name the trial's campaign coordinates; they
// seed the model's dedicated per-trial RNG (intermittent durations), which
// is decoupled from the bit-draw stream.
//
// Each cycle the loop checks, in order: architectural divergence, a
// retiring exception, the counting monitors (streaks.step: locked, then
// iTLB), and the per-cycle digest match against the golden run.
//
// Under EarlyStopOn two provably exact shortcuts apply. First, if the
// golden liveness trace shows the flipped entry is dead (resolveDead), the
// trial returns in O(1) without flipping or stepping — zero perturbation:
// the RNG stream is untouched (the bit was drawn by the caller) and the
// machine never leaves checkpoint state. Second, the keyframe certificate
// (tryConverge), armed only when the golden run recorded keyframes (g.conv,
// transient models): at every convStride boundary a still-running trial is
// diffed against the golden keyframe, and if every differing entry is
// provably untouched by the golden run for the rest of the horizon, the
// trial's future is bit-identical to the golden run's and firstFailure
// replays the remaining monitors over the golden bits. Both shortcuts
// stand down when a trial watchdog is armed (except a resolveDead that
// cannot cross the first watchdog stride), so watchdog expiry behavior is
// bit-identical to the full loop. A machine that stops writing state
// (Machine.Quiescent) needs no shortcut: it never retires again, so the
// locked monitor fires within lockedCycles cycles, each an O(1) memoized
// Step.
func (w *worker) runTrial(bit state.BitRef, ck, idx int) Trial {
	m := w.m
	g := w.g
	trial := Trial{
		Category: bit.Elem.Category(),
		Kind:     bit.Elem.Kind(),
		Elem:     bit.Elem.Name(),
		Bit:      int32(bit.Entry*bit.Elem.Width() + bit.Bit),
	}

	// The convergence check below indexes g.digests[cyc-1]. runCampaign
	// rejects configurations whose trial horizon exceeds the golden-run
	// horizon at startup; this clamp makes the contract local too, so the
	// index can never run past the digest array even if a future caller
	// hands runTrial a short golden run.
	horizon := w.cfg.Horizon
	if n := len(g.digests); horizon > n {
		horizon = n
	}
	// Trial watchdog: a corrupted machine can livelock in ways the
	// locked monitor never sees (e.g. a Step loop that keeps
	// retiring garbage). The deadline is read every watchdogStride cycles;
	// expiry kills the trial as OutAnomaly.
	var deadline int64
	if w.cfg.TrialTimeout > 0 && w.cfg.Clock != nil {
		deadline = w.cfg.Clock() + int64(w.cfg.TrialTimeout)
	}

	// Dead-trial resolution assumes the corruption dies with the first
	// overwrite, so it stands down for non-transient models (whose goldens
	// are untraced anyway — the model gate here is defense in depth).
	if g.traced && w.model.Transient() && w.cfg.EarlyStop == EarlyStopOn {
		if out, mode, cyc, ok := w.resolveDead(bit, horizon); ok && (deadline == 0 || cyc < watchdogStride) {
			trial.Outcome, trial.Mode = out, mode
			trial.Cycles = int32(cyc)
			if w.cfg.OnTrialResolved != nil {
				w.cfg.OnTrialResolved(ResolveTaint, 0)
			}
			return trial
		}
	}

	w.mon.reset(g)
	m.OnRetire = w.onRetire
	m.OnExc = w.onExc
	steps := 0
	// kind starts as anomaly so a panic unwinding through the defer (the
	// containment boundary recovers it above us) reports the attempt as
	// anomalous; every normal return overwrites it first.
	kind := ResolveAnomaly
	defer func() {
		m.OnRetire = nil
		m.OnExc = nil
		if w.cfg.OnTrialResolved != nil {
			w.cfg.OnTrialResolved(kind, steps)
		}
	}()

	// Arm the fault model at the drawn bit. Models that consume randomness
	// (intermittent durations) get a dedicated stream seeded from the trial's
	// campaign coordinates, so model randomness is identical across
	// workers, retries and resume, and never perturbs the
	// bit-draw stream. One-shot models return a nil ArmedFault and the loop
	// below is bit-identical to the pre-interface engine.
	var mrng *rand.Rand
	if w.model.armRNG() {
		mrng = rand.New(rand.NewSource(trialModelSeed(w.cfg.Seed, ck, idx)))
	}
	armed := w.model.Arm(bit, mrng)
	if armed != nil {
		defer armed.Disarm()
	}

	conv := g.conv && w.cfg.EarlyStop == EarlyStopOn && deadline == 0
	var st streaks
	lastRetired := m.Retired
	for cyc := 1; cyc <= horizon; cyc++ {
		if deadline != 0 && cyc&(watchdogStride-1) == 0 && w.cfg.Clock() >= deadline {
			trial.Outcome = OutAnomaly
			trial.Cycles = int32(cyc)
			trial.Anomaly = &Anomaly{
				Panic:    fmt.Sprintf("core: trial watchdog expired after %v (cycle %d of %d)", w.cfg.TrialTimeout, cyc, horizon),
				Elem:     trial.Elem,
				Entry:    int32(bit.Entry),
				Bit:      int32(bit.Bit),
				Seed:     w.cfg.Seed,
				Attempts: 1,
			}
			return trial
		}
		m.Step()
		steps++
		// Re-impose an armed persistent fault before the cycle's
		// classification checks, so an overwrite by the pipeline never
		// outlives the assertion window. Reassert writes through Elem.Set,
		// folding the digest/journal/write-count like any behavioral write.
		if armed != nil && !armed.Reassert(m.F, uint64(cyc)) {
			armed = nil
		}
		trial.Cycles = int32(cyc)
		switch {
		case w.mon.diverged:
			kind = ResolveMonitor
			trial.Outcome, trial.Mode = OutSDC, w.mon.mode
			return trial
		case w.mon.excMode != FailNone:
			kind = ResolveMonitor
			trial.Outcome, trial.Mode = w.mon.excMode.Outcome(), w.mon.excMode
			return trial
		}
		retired := m.Retired > lastRetired
		lastRetired = m.Retired
		if fm := st.step(retired, m.FetchStalledIllegal()); fm != FailNone {
			kind = ResolveMonitor
			trial.Outcome, trial.Mode = fm.Outcome(), fm
			return trial
		}
		// The digest match is sound only once no fault is armed: an
		// asserting stuck-at can re-diverge a digest-matched machine the
		// moment the golden run writes the stuck entry. armed is permanently
		// nil for one-shot models, so the gate costs a nil compare on the
		// classic path.
		if armed == nil && !w.mon.outOfTrace && m.TraceDigest() == g.digests[cyc-1] {
			kind = ResolveConverge
			trial.Outcome = OutMatch
			return trial
		}
		if conv && cyc&(convStride-1) == 0 && cyc < horizon {
			if done, ok := w.tryConverge(trial, cyc, horizon, st); ok {
				kind = ResolveConverge
				return done
			}
		}
	}
	kind = ResolveHorizon
	trial.Outcome = OutGray
	return trial
}

// tryConverge is the convergence certificate: called with a still-running
// trial at a convStride boundary cycle cyc, it decides whether the trial's
// entire remaining horizon is provably identical to the golden run's, and
// if so resolves the remaining classification in closed form.
//
// The certificate holds when (a) the trial's memory contents equal the
// golden run's at cyc (memory digests match), (b) the trial's retirement
// stream so far is cycle-for-cycle aligned with the golden run's (the
// monitor never diverged, never ran out of trace, and has consumed exactly
// as many events as the golden run had emitted by cyc), (c) the golden run
// takes no exception at or before cyc (the trial demonstrably took none —
// it is still running — so an earlier golden exception would mean the
// streams already differ in a way the event trace cannot express), and
// (d) no entry in the delta set D — every state-file entry whose value
// differs from the golden keyframe — nor any entry the delta can flow into
// over recovery-drain copy edges, is behaviorally read by the golden run
// after cyc (the last-touch trace; CopyEntry data movement is excluded and
// tracked as edges instead), and (e) at least one member of D is fully
// frozen: never behaviorally written nor copy-rewritten after cyc.
//
// Under (a)–(e) the two machines' states agree everywhere outside the copy
// closure C of D (D plus its transitive active copy destinations): by
// induction over cycles, each Step performs identical behavioral reads —
// all outside C by (d) — so takes identical branches and performs
// identical behavioral writes, and its data-movement copies write
// identical values when the source is outside C while copies from inside C
// land inside C (CopyDst is single-destination or the certificate bailed
// on poison). Every future retire event, exception, retire/no-retire cycle
// and fetch-stall flag is therefore the golden run's own, so firstFailure
// replays the remaining trial-loop monitors over the golden run's recorded
// bits, carrying the trial's streaks st.
//
// The per-cycle digest match cannot fire either. When every member of C is
// frozen the argument is exact: the composite digest differs from the
// golden trajectory by D's constant contribution, witnessed nonzero at cyc
// (the loop's own digest check ran first and missed). When copies keep
// rewriting closure members the delta's digest contribution varies, but
// true state equality stays impossible — the anchor entry of (e) differs
// forever — so a digest match would require an XOR collision between
// differing states, the same 2⁻⁶⁴-class event the per-cycle match check
// itself accepts. No event within the horizon means Gray at the horizon,
// exactly like a full-horizon run.
func (w *worker) tryConverge(trial Trial, cyc, horizon int, st streaks) (Trial, bool) {
	g := w.g
	m := w.m
	ki := cyc/convStride - 1
	if ki >= len(g.keyframes) {
		return trial, false
	}
	kf := g.keyframes[ki]
	c := uint64(cyc)
	if kf.cyc != c {
		return trial, false
	}
	if m.Mem.Digest() != kf.memDigest {
		return trial, false
	}
	if w.mon.outOfTrace || w.mon.idx != int(g.evCount[cyc-1]) {
		return trial, false
	}
	if g.excAt != 0 && g.excAt <= c {
		return trial, false
	}
	tr := g.trace
	// Collect the delta set D. Certificates over a wide delta essentially
	// never hold (many differing entries imply live state), so a hard cap
	// bounds the collection.
	const maxDelta = 128
	var dbuf [maxDelta]uint64
	nd := 0
	if !m.F.DiffEntries(kf.snap, func(key uint64) bool {
		if nd == maxDelta {
			return false
		}
		dbuf[nd] = key
		nd++
		return true
	}) {
		return trial, false
	}
	// (d) no member of D, nor any entry D can flow into over copy edges,
	// is behaviorally read after cyc; (e) at least one member is fully
	// frozen, anchoring the two states apart through the horizon.
	anchor := false
	for _, k := range dbuf[:nd] {
		if tr.LastRead[k] > c {
			return trial, false
		}
		if tr.LastSet[k] <= c && tr.LastCopy[k] <= c {
			anchor = true
		}
		// Chase the copy-out chain: entries the golden run copies k — or
		// k's transitive copy destinations — into after cyc receive
		// possibly differing values, so they must not be behaviorally read
		// after cyc either. Multi-destination sources (Poisoned) make the
		// flow untrackable; a depth cap guards against edge cycles.
		e := k
		for depth := 0; ; depth++ {
			d := tr.CopyDst[e]
			if d == 0 {
				break
			}
			if d == state.Poisoned || depth == 8 {
				return trial, false
			}
			e = d - 1
			if tr.LastCopy[e] <= c { // no copy-ins after cyc: edge is spent
				break
			}
			if tr.LastRead[e] > c {
				return trial, false
			}
		}
	}
	if !anchor {
		return trial, false
	}

	// Divergence cannot fire (the remaining event streams are identical and
	// aligned) and the digest match cannot fire (see above).
	at, fm := g.firstFailure(c, st, uint64(horizon))
	if at == 0 {
		trial.Outcome, trial.Mode = OutGray, FailNone
		trial.Cycles = int32(horizon)
		return trial, true
	}
	trial.Outcome, trial.Mode = fm.Outcome(), fm
	trial.Cycles = int32(at)
	return trial, true
}
