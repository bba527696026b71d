package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"time"

	"pipefault/internal/mem"
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
// golden sweep (a power of two). Keyframes sit at absolute multiples of
// convStride, so every window that covers a boundary shares its keyframe.
// A trial meets keyframe g when it has retired exactly as many events as
// the golden run had by g, at a trial cycle c ≥ g (see tryConverge), so
// the stride bounds how far past its convergence point a provable trial
// steps: to the next keyframe, plus its lag. Smaller strides prove
// frozen-delta trials earlier but cost one state-file delta each; 512
// keeps a 10k-cycle horizon at 19-20 keyframes (~6 KB each on gzip) while
// bounding that wasted stepping to under half a keyframe interval on
// average.
const convStride = 512

// keyframe is one golden trajectory keyframe: the state-file contents after
// absolute cycle cyc, as a delta against the sweep's base, and the memory
// digest. The trial loop diffs its own state against the patched keyframe
// to compute the exact set of entries still differing from the golden run
// (see tryConverge).
type keyframe struct {
	cyc       uint64
	delta     state.Delta
	memDigest uint64
}

// goldenRun is a checkpoint's fault-free continuation over the trial
// horizon, as the golden sweep recorded it (see sweep.go): per cycle the
// whole-machine trajectory digest, the cumulative retirement count and the
// monitor flags, plus the retired-instruction trace, the touch trace and
// the keyframes, recorded under every configuration. They live in the
// sweep's rings; the window reads its stretch of each by ordinal.
// Read-only: the worker running the checkpoint reads it for every trial.
type goldenRun struct {
	start  uint64 // the checkpoint cycle (absolute)
	n      int    // window length in cycles (the horizon)
	cycles []cycleRec
	ord    uint64 // cycles ordinal of window cycle 1
	events []goldenEvent
	ev0    uint64 // events ordinal of the window's first retirement
	nEv    int

	// Liveness data, read by dead-entry resolution and the prover: the
	// window's touch trace over every entry, its first retiring exception,
	// and the first monitor failure replayed over the per-cycle retire and
	// illegal-fetch flags. A trial whose flipped entry is overwritten
	// before the golden run ever reads it behaves bit-identically to the
	// golden run, so its outcome is a pure function of these fields (see
	// (*worker).resolveDead); replay runs the monitors over them.
	trace    *state.WindowTrace
	excAt    uint64 // first cycle an exception reaches retirement
	excMode  FailureMode
	failAt   uint64 // replay(0, streaks{}, Horizon, 0, false)
	failMode FailureMode

	// Convergence-certificate data: the base state of the sweep's run of
	// windows and the keyframes at the absolute convStride boundaries
	// inside the window, as deltas against it.
	base      *state.Snapshot
	keyframes []keyframe
	kf0       uint64 // keyframes ordinal of the window's first keyframe
	nKf       int
}

// cycle returns the record of window cycle c (1-based).
func (g *goldenRun) cycle(c int) *cycleRec {
	return &g.cycles[(g.ord+uint64(c)-1)%uint64(len(g.cycles))]
}

// event returns the window's i-th retirement event (0-based).
func (g *goldenRun) event(i int) *goldenEvent {
	return &g.events[(g.ev0+uint64(i))%uint64(len(g.events))]
}

// digest returns the composite digest after window cycle c.
func (g *goldenRun) digest(c int) uint64 { return g.cycle(c).digest }

// evCount returns the number of retirement events through window cycle c.
func (g *goldenRun) evCount(c int) int { return int(g.cycle(c).ev - uint32(g.ev0)) }

// retired reports whether an instruction retired at window cycle c.
func (g *goldenRun) retired(c uint64) bool { return g.cycle(int(c)).flags&cycRetired != 0 }

// illegal reports whether fetch stalled on an illegal address after window
// cycle c.
func (g *goldenRun) illegal(c uint64) bool { return g.cycle(int(c)).flags&cycIllegal != 0 }

// kf returns the window's i-th keyframe (0-based).
func (g *goldenRun) kf(i int) *keyframe {
	return &g.keyframes[(g.kf0+uint64(i))%uint64(len(g.keyframes))]
}

// kfCycle returns the window cycle of the window's i-th keyframe: the
// absolute convStride boundaries after the checkpoint.
func (g *goldenRun) kfCycle(i int) int {
	return int((g.start/convStride+1)*convStride-g.start) + i*convStride
}

// A goldenEvent is one retirement of a golden run, reduced to the fields
// the trial monitor compares and the shadow seqno validInsns looks up, in
// 32 bytes where a uarch.RetireEvent takes 64: the retirement trace is the
// largest buffer the sweep keeps. pk holds the PC in its low 48 bits (a
// fault-free run retires only program addresses), the kind in its top
// byte and the destination register (RetReg) or store size (RetStore)
// below it; a is the register value (RetReg), the PAL argument (RetPal) or
// the store address (RetStore); b is the store data (RetStore) or the PAL
// function (RetPal).
type goldenEvent struct {
	pk, a, b, seq uint64
}

// goldenPCBits is the width of the PC in goldenEvent.pk.
const goldenPCBits = 48

// goldenEventOf keeps the fields of ev that its kind defines.
func goldenEventOf(ev uarch.RetireEvent) goldenEvent {
	if ev.PC>>goldenPCBits != 0 {
		panic(fmt.Sprintf("core: golden retirement at pc %#x beyond %d address bits", ev.PC, goldenPCBits))
	}
	g := goldenEvent{pk: ev.PC | uint64(ev.Kind)<<56, seq: ev.Seq}
	switch ev.Kind {
	case uarch.RetReg:
		g.a = ev.Value
		g.pk |= uint64(ev.Dest) << goldenPCBits
	case uarch.RetStore:
		g.a, g.b = ev.Addr, ev.Data
		g.pk |= uint64(ev.Size) << goldenPCBits
	case uarch.RetPal:
		g.a, g.b = ev.Value, uint64(ev.PalFn)
	}
	return g
}

// pc returns the retiring instruction's PC.
func (g *goldenEvent) pc() uint64 { return g.pk & (1<<goldenPCBits - 1) }

// kind returns the retirement kind.
func (g *goldenEvent) kind() uarch.RetireKind { return uarch.RetireKind(g.pk >> 56) }

// small returns the destination register (RetReg) or store size
// (RetStore), and 0 otherwise.
func (g *goldenEvent) small() uint8 { return uint8(g.pk >> goldenPCBits) }

// data returns the store data (RetStore), and 0 otherwise.
func (g *goldenEvent) data() uint64 {
	if g.kind() == uarch.RetStore {
		return g.b
	}
	return 0
}

// palFn returns the PAL function (RetPal), and 0 otherwise.
func (g *goldenEvent) palFn() uint32 {
	if g.kind() == uarch.RetPal {
		return uint32(g.b)
	}
	return 0
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
// trial loop and every closed-form replay (goldenRun.replay) advance it
// through step, so the thresholds and their same-cycle order exist once.
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

// replay is the trial loop's closed form for a trial that runs the golden
// run lag cycles late from golden cycle from on: golden cycle c is trial
// cycle c+lag. Over golden cycles (from, h-lag] it runs the loop's checks
// in the loop's order — a retiring exception, then st.step on the recorded
// retire and illegal-fetch bits and, when same (the trial's state equals
// the golden run's), the per-cycle digest compare: the trial's digest is
// the golden digest at c, compared against the golden digest at c+lag as
// the loop compares it. It returns the trial cycle the first check fires
// and the failure mode, FailNone meaning the digests matched (µArch
// Match), or 0 when nothing fires by trial cycle h. h must not exceed the
// golden horizon. With lag 0 and same false it is the failure replay
// resolveDead and the prover read (goldenRun.failAt).
func (g *goldenRun) replay(from uint64, st streaks, h, lag uint64, same bool) (uint64, FailureMode) {
	for c := from + 1; c+lag <= h; c++ {
		if c == g.excAt {
			return c + lag, g.excMode
		}
		if fm := st.step(g.retired(c), g.illegal(c)); fm != FailNone {
			return c + lag, fm
		}
		if same && g.digest(int(c)) == g.digest(int(c+lag)) {
			return c + lag, FailNone
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
	if t.idx >= t.g.nEv {
		t.outOfTrace = true
		return
	}
	ge := t.g.event(t.idx)
	t.idx++
	switch {
	case ev.PC != ge.pc() || ev.Kind != ge.kind():
		t.mode, t.diverged = FailCtrl, true
	case ev.Kind == uarch.RetReg && (ev.Dest != ge.small() || ev.Value != ge.a):
		t.mode, t.diverged = FailRegfile, true
	case ev.Kind == uarch.RetStore &&
		(ev.Addr != ge.a || ev.Data != ge.b || ev.Size != ge.small()):
		t.mode, t.diverged = FailMem, true
	case ev.Kind == uarch.RetPal && ev.PalFn != ge.palFn():
		t.mode, t.diverged = FailCtrl, true
	case ev.Kind == uarch.RetPal && ev.Value != ge.a:
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

// worker runs trials on a private machine. Every worker serves arbitrary
// checkpoints by materializing their portable images, and g points at the
// current checkpoint's golden run, which the sweep recorded and nobody
// writes. Workers never share mutable state.
type worker struct {
	cfg Config
	m   *uarch.Machine
	//pipelint:shadow-ok resolved fault model from Config.Model; campaign parameter, not injectable machine state
	model FaultModel
	//pipelint:shadow-ok the current checkpoint's golden run, read-only; engine scaffolding
	g *goldenRun
	//pipelint:shadow-ok the memory image last restored onto the machine; engine scaffolding
	cur *mem.Image
	//pipelint:shadow-ok tryConverge's scratch: a keyframe delta patched onto the golden base; engine scaffolding
	kfSnap state.Snapshot
	//pipelint:shadow-ok per-trial classifier scratch, reset each trial; never injectable machine state
	mon trialMonitor
	//pipelint:shadow-ok reusable rewind marks for the undo journal; engine scaffolding
	trialMark uarch.MarkPoint
	//pipelint:shadow-ok validInsns's scratch: the checkpoint's in-flight seqnos; engine scaffolding
	seqs []uint64
	//pipelint:shadow-ok the prover's declarations, built once per worker; campaign parameter
	hints prove.Hints
	//pipelint:shadow-ok the current checkpoint's proof, refilled per checkpoint; engine scaffolding
	proof prove.Proof
	//pipelint:shadow-ok the checkpoint's bit-draw stream, reseeded per checkpoint; engine scaffolding
	drawRNG *rand.Rand
	//pipelint:shadow-ok the cross-check oracle's stream, reseeded per checkpoint; engine scaffolding
	checkRNG *rand.Rand
	//pipelint:shadow-ok the fault model's per-trial stream, reseeded per trial; engine scaffolding
	modelRNG *rand.Rand

	// Callbacks built once per worker and re-attached per trial.
	onRetire func(uarch.RetireEvent)
	onExc    func(uarch.ExcEvent)
}

// newWorker wires up a worker's reusable buffers and callbacks. Its RNGs
// are reseeded in place at each use: Seed restarts a source on exactly the
// stream a fresh NewSource with that seed gives.
func newWorker(cfg Config, m *uarch.Machine) *worker {
	w := &worker{
		cfg: cfg, m: m, model: resolveModel(cfg.Model), hints: uarch.ProofHints(),
		drawRNG:  rand.New(rand.NewSource(0)),
		checkRNG: rand.New(rand.NewSource(0)),
		modelRNG: rand.New(rand.NewSource(0)),
	}
	w.onRetire = w.mon.onRetire
	w.onExc = w.mon.onExc
	return w
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
// current (checkpoint) state and the checkpoint's golden run, or returns
// nil under ProveOff. The machine must stand at checkpoint state — the
// idleness rule reads gate values as of the checkpoint. The proof is the
// worker's, refilled at each checkpoint: it is valid until the next call.
func (w *worker) computeProof(g *goldenRun) *prove.Proof {
	if w.cfg.Prove == ProveOff {
		return nil
	}
	return w.proof.Compute(w.m.F, g.trace, g.failAt, uint64(w.cfg.Horizon), w.hints, prove.RuleAll)
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
// The machine must sit at checkpoint state with no journal bracket open. Each check trial rewinds through the
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
	rng := w.checkRNG
	rng.Seed(checkpointSeed(w.cfg.Seed, ck) ^ crossCheckSalt)
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

// testConvergeHook, when non-nil, observes every convergence-certificate
// decision: the trial cycle it ran at, the window cycle of the golden
// keyframe it was against, and why it failed (convHeld: it held). Besides
// each attempt it reports every keyframe a trial retired past without an
// attempt (bailAhead or bailAlign). Test-only: the certificate tests count
// decisions per fault model and pick trials by them. Installed hooks must
// be safe for concurrent calls.
var testConvergeHook func(cyc, gcyc int, why convBail)

// convBail is the outcome of one convergence-certificate decision: convHeld,
// or the first condition of tryConverge that failed.
type convBail uint8

const (
	convHeld      convBail = iota
	bailMemDigest          // (a) the memory digests differ
	bailAlign              // (b)/(c) the retirement streams cannot be aligned at the keyframe
	bailAhead              // the trial had retired past the keyframe's count by the golden run's cycle
	bailDeltaCap           // the delta set outgrew maxDelta
	bailLaterRead          // (d) the golden run reads a delta entry, or a copy destination, later
	bailPoisoned           // (d) a copy chain is multi-destination or too deep to follow
	bailNoAnchor           // (e) every delta entry is rewritten later
)

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
// at g.failAt, the monitor replay from checkpoint state. The loop
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
// Under EarlyStopOn two provably exact shortcuts apply; EarlyStopOff
// reads neither the touch trace nor the keyframes, so it stays the
// full-horizon reference. First, for a transient fault, if the golden
// liveness trace shows the flipped entry is dead (resolveDead), the trial
// returns in O(1) without flipping or stepping — zero perturbation: the
// RNG stream is untouched (the bit was drawn by the caller) and the
// machine never leaves checkpoint state. Second, the keyframe certificate
// (tryConverge), armed once no fault is armed — a windowed stuck-at
// qualifies from the cycle it disarms. The trial walks the window's
// keyframes in order (kfCursor): once it has retired exactly as many
// events as the golden run had by keyframe g, at any trial cycle c ≥ g,
// it is diffed against that keyframe, and if every differing entry is
// provably untouched by the golden run for the rest of the horizon, the
// trial's future is the golden run's from g, c − g cycles late, and
// replay classifies it over the golden bits. A trial in step with the
// golden run meets each keyframe at its own cycle; one that lags meets it
// later. Both shortcuts stand down when a trial watchdog is armed (except
// a resolveDead that cannot cross the first watchdog stride), so watchdog
// expiry behavior is bit-identical to the full loop. A machine that stops
// writing state needs no shortcut: it never retires again, so the locked
// monitor ends the trial within lockedCycles full Steps.
func (w *worker) runTrial(bit state.BitRef, ck, idx int) Trial {
	m := w.m
	g := w.g
	trial := Trial{
		Category: bit.Elem.Category(),
		Kind:     bit.Elem.Kind(),
		Elem:     bit.Elem.Name(),
		Bit:      int32(bit.Entry*bit.Elem.Width() + bit.Bit),
	}

	horizon := w.cfg.Horizon
	// Trial watchdog: a corrupted machine can livelock in ways the
	// locked monitor never sees (e.g. a Step loop that keeps
	// retiring garbage). The deadline is read every watchdogStride cycles;
	// expiry kills the trial as OutAnomaly.
	var deadline int64
	if w.cfg.TrialTimeout > 0 && w.cfg.Clock != nil {
		deadline = w.cfg.Clock() + int64(w.cfg.TrialTimeout)
	}

	// Dead-trial resolution assumes the corruption dies with the first
	// overwrite, so it stands down for non-transient models.
	if w.model.Transient() && w.cfg.EarlyStop == EarlyStopOn {
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
		mrng = w.modelRNG
		mrng.Seed(trialModelSeed(w.cfg.Seed, ck, idx))
	}
	armed := w.model.Arm(bit, mrng)
	if armed != nil {
		defer armed.Disarm()
	}

	kc := kfCursor{cyc: math.MaxInt, ev: math.MaxInt}
	if w.cfg.EarlyStop == EarlyStopOn && deadline == 0 {
		kc.seek(g, 0)
	}
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
		// folding the digest and journal like any behavioral write.
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
		if armed == nil && !w.mon.outOfTrace && m.TraceDigest() == g.digest(cyc) {
			kind = ResolveConverge
			trial.Outcome = OutMatch
			return trial
		}
		// The certificate, like the digest match, needs the fault gone: from
		// the cycle a windowed stuck-at disarms, the trial is a plain state
		// delta against the golden run — the certificate's premise. A
		// permanent fault never disarms, so it never gets here. The gate
		// opens once the trial has reached the pending keyframe's cycle and
		// retirement count.
		if armed == nil && cyc >= kc.cyc && w.mon.idx >= kc.ev && cyc < horizon {
			if done, ok := w.tryConverge(trial, cyc, horizon, st, &kc); ok {
				kind = ResolveConverge
				return done
			}
		}
	}
	kind = ResolveHorizon
	trial.Outcome = OutGray
	return trial
}

// kfCursor is a trial's place among its window's keyframes: the earliest
// keyframe it has not retired past, by index, window cycle and the golden
// retirement count there; whether the worker's scratch snapshot holds that
// keyframe patched; and whether the certificate was tried against it. A
// cursor past the last keyframe, or of a trial the certificate does not
// apply to, holds math.MaxInt in cyc and ev, so the trial loop's gate
// never opens.
type kfCursor struct {
	i, cyc, ev     int
	patched, tried bool
}

// seek points the cursor at g's i-th keyframe, or past the last.
func (k *kfCursor) seek(g *goldenRun, i int) {
	*k = kfCursor{i: i, cyc: math.MaxInt, ev: math.MaxInt}
	if i < g.nKf {
		k.cyc = g.kfCycle(i)
		k.ev = g.evCount(k.cyc)
	}
}

// tryConverge is the convergence certificate. The trial loop calls it for
// a still-running trial at cycle cyc once cyc has reached the cursor's
// keyframe cycle g and the trial's retirement count has reached the golden
// count at g. It first moves the cursor past every keyframe the trial has
// retired beyond; then, if the trial has retired exactly the golden count
// at g, it decides whether the trial's state at cyc is the golden state at
// g up to a provably inert delta, and if so resolves the remaining
// classification in closed form. The lag d = cyc − g is 0 for a trial in
// step with the golden run; the certificate has no other special case.
//
// The certificate holds when, at g, (a) the trial's memory contents equal
// the golden run's (memory digests match), (b) the trial's retirement
// stream is aligned with the golden run's (the monitor never diverged,
// never ran out of trace, and has consumed exactly the events the golden
// run had emitted by g), (c) the golden run takes no exception at or before
// g (the trial demonstrably took none — it is still running — so an
// earlier golden exception would mean the streams already differ in a way
// the event trace cannot express), and either the delta set D — every
// state-file entry whose value differs from the keyframe — is empty, or
// (d) no entry in D, nor any entry the delta can flow into over
// recovery-drain copy edges, is behaviorally read by the golden run after
// g (the last-touch trace; CopyEntry data movement is excluded and tracked
// as edges instead), and (e) at least one member of D is fully frozen:
// never behaviorally written nor copy-rewritten after g.
//
// Pipeline logic reads only the state file and memory, never the cycle
// counter, so the trial's next cycle steps from the state the golden run's
// cycle g+1 steps from, up to D. Under (a)–(e) the two machines' states at
// trial cycle c+k and golden cycle g+k agree everywhere outside the copy
// closure C of D (D plus its transitive active copy destinations): by
// induction over k, each Step performs identical behavioral reads — all
// outside C by (d) — so takes identical branches and performs identical
// behavioral writes, and its data-movement copies write identical values
// when the source is outside C while copies from inside C land inside C
// (CopyDst is single-destination or the certificate bailed on poison).
// Every future retire event, exception, retire/no-retire cycle and
// fetch-stall flag of trial cycle c+k is therefore the golden run's at
// g+k, and the events line up by count from (b), so replay runs the
// remaining trial-loop checks over golden cycles (g, H − d], carrying the
// trial's streaks st and reporting trial cycles.
//
// With D empty the trial is the golden run d cycles late, so its digest at
// c+k is the golden digest at g+k and replay also runs the loop's digest
// compare, against the golden digest at c+k. Otherwise the digest match
// cannot fire. When every member of C is frozen the argument is exact: the
// anchor of (e) holds at trial cycle c+k its value at c, and in the golden
// run at c+k ≥ g its value at g, and those differ. When copies keep
// rewriting closure members the delta's digest contribution varies, but
// true state equality stays impossible — the anchor differs forever — so a
// digest match would require an XOR collision between differing states,
// the same 2⁻⁶⁴-class event the per-cycle match check itself accepts. No
// event within the horizon means Gray at the horizon, exactly like a
// full-horizon run.
//
// Only lagging trials qualify (d ≥ 0): a trial ahead of the golden run
// would need golden cycles past the horizon, which the sweep does not
// record.
func (w *worker) tryConverge(trial Trial, cyc, horizon int, st streaks, kc *kfCursor) (Trial, bool) {
	g := w.g
	for w.mon.idx > kc.ev {
		if !kc.tried && testConvergeHook != nil {
			why := bailAlign
			if w.mon.idx > g.evCount(cyc) {
				why = bailAhead
			}
			testConvergeHook(cyc, kc.cyc, why)
		}
		kc.seek(g, kc.i+1)
		if cyc < kc.cyc || w.mon.idx < kc.ev {
			return trial, false
		}
	}
	kc.tried = true
	why, same := w.certify(kc)
	if testConvergeHook != nil {
		testConvergeHook(cyc, kc.cyc, why)
	}
	if why != convHeld {
		return trial, false
	}
	at, fm := g.replay(uint64(kc.cyc), st, uint64(horizon), uint64(cyc-kc.cyc), same)
	switch {
	case at == 0:
		trial.Outcome, trial.Mode = OutGray, FailNone
		trial.Cycles = int32(horizon)
	case fm == FailNone:
		trial.Outcome, trial.Mode = OutMatch, FailNone
		trial.Cycles = int32(at)
	default:
		trial.Outcome, trial.Mode = fm.Outcome(), fm
		trial.Cycles = int32(at)
	}
	return trial, true
}

// certify checks tryConverge's conditions (a)–(e) for the trial's current
// state against the cursor's keyframe, whose retirement count the trial
// has reached. It reports convHeld or the first failed condition, and
// whether the delta set is empty.
func (w *worker) certify(kc *kfCursor) (why convBail, same bool) {
	g := w.g
	m := w.m
	kf := g.kf(kc.i)
	if m.Mem.Digest() != kf.memDigest {
		return bailMemDigest, false
	}
	c := uint64(kc.cyc)
	if w.mon.outOfTrace || g.excAt != 0 && g.excAt <= c {
		return bailAlign, false
	}
	tr := g.trace
	// Collect the delta set D against the keyframe, patched onto the golden
	// base in the worker's scratch snapshot once per keyframe. Certificates
	// over a wide delta essentially never hold (many differing entries imply
	// live state), so a hard cap bounds the collection.
	if !kc.patched {
		kf.delta.PatchInto(&w.kfSnap, g.base)
		kc.patched = true
	}
	const maxDelta = 128
	var dbuf [maxDelta]uint64
	nd := 0
	if !m.F.DiffEntries(&w.kfSnap, func(key uint64) bool {
		if nd == maxDelta {
			return false
		}
		dbuf[nd] = key
		nd++
		return true
	}) {
		return bailDeltaCap, false
	}
	// (d) no member of D, nor any entry D can flow into over copy edges,
	// is behaviorally read after g; (e) at least one member is fully
	// frozen, anchoring the two states apart through the horizon.
	anchor := false
	for _, k := range dbuf[:nd] {
		if tr.LastRead(k) > c {
			return bailLaterRead, false
		}
		if tr.LastSet(k) <= c && tr.LastCopy(k) <= c {
			anchor = true
		}
		// Chase the copy-out chain: entries the golden run copies k — or
		// k's transitive copy destinations — into after g receive possibly
		// differing values, so they must not be behaviorally read after g
		// either. Multi-destination sources (Poisoned) make the flow
		// untrackable; a depth cap guards against edge cycles.
		e := k
		for depth := 0; ; depth++ {
			d := tr.CopyDst(e)
			if d == 0 {
				break
			}
			if d == state.Poisoned || depth == 8 {
				return bailPoisoned, false
			}
			e = d - 1
			if tr.LastCopy(e) <= c { // no copy-ins after g: edge is spent
				break
			}
			if tr.LastRead(e) > c {
				return bailLaterRead, false
			}
		}
	}
	if nd > 0 && !anchor {
		return bailNoAnchor, false
	}
	return convHeld, nd == 0
}
