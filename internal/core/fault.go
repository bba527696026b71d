package core

import (
	"fmt"
	"math/rand"

	"pipefault/internal/state"
)

// A FaultModel decides what a campaign injects at each drawn bit. The
// paper's model — a single transient flip of one state bit — is
// TransientFlip, the default (a nil Config.Model). StuckAt and MultiBit
// generalize it along the RTFI axes: polarity, duration (transient window,
// intermittent with seeded random duration, permanent) and spatial
// multiplicity (adjacent-bit MBUs within one entry).
//
// The model contributes three hooks to the trial loop:
//
//   - Arm injects the fault at the drawn bit before the trial's first
//     cycle, exactly where the old code called BitRef.Flip. It returns the
//     armed per-trial state, or nil for one-shot faults that need no
//     per-cycle work.
//   - ArmedFault.Reassert runs after every trial cycle and re-imposes the
//     fault's value, so a stuck-at survives overwrites by the pipeline. It
//     reports whether the fault is still asserting; once it expires the
//     trial continues as an ordinary diverged machine.
//   - ArmedFault.Disarm runs when the trial ends (the rewind path restores
//     the corrupted state itself; Disarm only retires the armed bookkeeping
//     so a pooled trial loop cannot observe a stale fault).
//
// Reassert writes through Elem.Set, so it folds the file digest, write
// count, undo journal and any attached touch trace exactly like a
// behavioral write — rewind and the digest-based classification need no
// model-specific cases.
//
// Soundness: taint dead-trial resolution and every prove rule assume an
// overwrite kills the fault, and the per-cycle digest match and the
// convergence certificate assume nothing re-corrupts the trial. Both hold
// for one-shot models (Transient reports true) and are false while a
// stuck-at is asserting, so Config.Validate auto-restricts Prove per model
// (see Config.restrictToModel), the trial loop runs dead-trial resolution
// only for transient models, and it gates the digest match and the
// certificate on the fault no longer being armed. Every model records the
// same golden run.
//
// The interface is sealed (the unexported method): the engine's soundness
// gating enumerates the models, so new ones must be added here, next to
// the gating they have to justify.
type FaultModel interface {
	// String is the model's canonical name. It doubles as the journal
	// identity token: two configs resume-compatible only if it matches.
	String() string
	// Transient reports whether the injection is one-shot — any overwrite
	// of the corrupted entry kills the fault. The early-stop and prover
	// soundness arguments require it.
	Transient() bool
	// Arm injects the fault at bit. rng is the model's dedicated per-trial
	// stream (non-nil exactly when armRNG reports true); it is decoupled
	// from the campaign's bit-draw stream, so model randomness never
	// perturbs which bits trials land on.
	Arm(bit state.BitRef, rng *rand.Rand) ArmedFault
	// armRNG reports whether Arm consumes randomness, letting the trial
	// loop skip building the per-trial RNG for deterministic models. It
	// also seals the interface.
	armRNG() bool
}

// ArmedFault is one trial's live fault state (see FaultModel).
type ArmedFault interface {
	// Reassert re-imposes the fault after cycle c of the trial and reports
	// whether it is still asserting. Called once per trial cycle, after
	// Machine.Step and before the cycle's classification checks.
	Reassert(f *state.File, c uint64) bool
	// Disarm retires the armed fault at trial end or rewind.
	Disarm()
}

// TransientFlip is the paper's fault model: one transient bit flip, dead
// the moment the entry is overwritten. It is the zero value of the model
// space — a nil Config.Model means TransientFlip — and campaigns running
// it behave bit-identically to the pre-interface engine.
type TransientFlip struct{}

func (TransientFlip) String() string  { return "transient" }
func (TransientFlip) Transient() bool { return true }
func (TransientFlip) armRNG() bool    { return false }

// Arm flips the bit. No armed state: the flip is one-shot.
func (TransientFlip) Arm(bit state.BitRef, _ *rand.Rand) ArmedFault {
	bit.Flip()
	return nil
}

// StuckAt forces the drawn bit to Polarity and keeps re-imposing it every
// cycle until the fault expires: after Duration cycles (a stuck-at
// transient window), after a per-trial random duration in [1, Duration]
// (Random — the RTFI intermittent fault), or never (Permanent).
type StuckAt struct {
	// Polarity is the stuck value, 0 or 1.
	Polarity uint8
	// Duration is the assertion window in cycles (ignored under Permanent;
	// the upper bound of the random window under Random).
	Duration int
	// Random draws each trial's actual duration uniformly from
	// [1, Duration] — the intermittent model.
	Random bool
	// Permanent asserts for the whole trial horizon.
	Permanent bool
}

func (s StuckAt) String() string {
	switch {
	case s.Permanent:
		return fmt.Sprintf("permanent%d", s.Polarity)
	case s.Random:
		return fmt.Sprintf("intermittent%d:%d", s.Polarity, s.Duration)
	}
	return fmt.Sprintf("stuck%d:%d", s.Polarity, s.Duration)
}

// Transient is false: an overwrite does not kill an asserting stuck-at —
// Reassert re-corrupts it next cycle.
func (StuckAt) Transient() bool { return false }

func (s StuckAt) armRNG() bool { return s.Random }

// Arm forces the bit to the stuck polarity (a no-op write if it already
// holds it — exactly like a scalar Set) and returns the asserting fault.
func (s StuckAt) Arm(bit state.BitRef, rng *rand.Rand) ArmedFault {
	until := uint64(s.Duration)
	if s.Permanent {
		until = ^uint64(0)
	} else if s.Random {
		until = 1 + uint64(rng.Int63n(int64(s.Duration)))
	}
	a := &armedStuck{bit: bit, val: uint64(s.Polarity), until: until}
	a.impose()
	return a
}

// armedStuck is StuckAt's per-trial state: the target bit, the driven
// value, and the last trial cycle the fault asserts through.
type armedStuck struct {
	bit   state.BitRef
	val   uint64
	until uint64
	done  bool
}

// impose drives the bit to the stuck value through the ordinary Set path.
func (a *armedStuck) impose() {
	e, i := a.bit.Elem, a.bit.Entry
	e.Set(i, e.Get(i)&^(uint64(1)<<uint(a.bit.Bit))|a.val<<uint(a.bit.Bit))
}

func (a *armedStuck) Reassert(_ *state.File, c uint64) bool {
	if a.done || c > a.until {
		return false
	}
	a.impose()
	return true
}

func (a *armedStuck) Disarm() { a.done = true }

// MultiBit is a spatially correlated multi-bit upset: Span adjacent bits
// of one entry flip together, anchored at the drawn bit and clamped at the
// entry's width — the span never wraps into a neighboring entry, and on a
// 1-bit element it degenerates to a single flip. One-shot like
// TransientFlip: the whole corruption lives in one entry, so an overwrite
// kills it and every early-stop argument still holds (the prover's per-bit
// proofs do not cover spans, so Prove is auto-restricted off).
type MultiBit struct {
	// Span is the number of adjacent bits to flip (>= 1).
	Span int
}

func (m MultiBit) String() string { return fmt.Sprintf("mbu%d", m.Span) }
func (MultiBit) Transient() bool  { return true }
func (MultiBit) armRNG() bool     { return false }

// Arm XORs the clamped span into the entry in one Set, so the digest and
// journal fold once for the whole upset.
func (m MultiBit) Arm(bit state.BitRef, _ *rand.Rand) ArmedFault {
	e, i := bit.Elem, bit.Entry
	span := m.Span
	if max := e.Width() - bit.Bit; span > max {
		span = max
	}
	var mask uint64
	if span >= 64 {
		mask = ^uint64(0)
	} else {
		mask = uint64(1)<<uint(span) - 1
	}
	e.Set(i, e.Get(i)^mask<<uint(bit.Bit))
	return nil
}

// resolveModel maps a Config.Model to the model the engine runs: nil means
// TransientFlip.
func resolveModel(m FaultModel) FaultModel {
	if m == nil {
		return TransientFlip{}
	}
	return m
}

// modelIdent is the journal-identity token of a model. TransientFlip maps
// to the empty string so pre-interface journals (which have no fault_model
// field) stay resumable, and an explicit TransientFlip config shares its
// identity with the default nil model — they are the same campaign.
func modelIdent(m FaultModel) string {
	m = resolveModel(m)
	if _, ok := m.(TransientFlip); ok {
		return ""
	}
	return m.String()
}

// validateModel rejects malformed model parameters at campaign startup.
func validateModel(m FaultModel) error {
	switch v := resolveModel(m).(type) {
	case TransientFlip:
	case StuckAt:
		if v.Polarity > 1 {
			return &ConfigError{Field: "Model", Value: v.String(), Reason: "StuckAt polarity must be 0 or 1"}
		}
		if !v.Permanent && v.Duration < 1 {
			return &ConfigError{Field: "Model", Value: v.String(), Reason: "StuckAt duration must be >= 1 unless Permanent"}
		}
	case MultiBit:
		if v.Span < 1 {
			return &ConfigError{Field: "Model", Value: v.String(), Reason: "MultiBit span must be >= 1"}
		}
	default:
		return &ConfigError{Field: "Model", Value: fmt.Sprintf("%T", m), Reason: "unknown fault model"}
	}
	return nil
}

// restrictToModel narrows Prove to what the configured model keeps sound.
// The prover's per-bit benign proofs only cover the exact single-bit
// transient flip, so any other model forces ProveOff. EarlyStop needs no
// narrowing: the engine gates each early-stop shortcut on the model
// itself — dead-trial resolution on Transient, the digest match and the
// convergence certificate on the fault having disarmed. Run through
// Validate, before the journal identity is derived,
// so Prove's contribution to the identity header reflects what the
// campaign actually does.
func (c *Config) restrictToModel() {
	if _, ok := resolveModel(c.Model).(TransientFlip); !ok {
		c.Prove = ProveOff
	}
}

// ParseFaultModel maps a -fault-model flag value (plus the -fault-duration
// companion flag) to a FaultModel.
func ParseFaultModel(s string, duration int) (FaultModel, error) {
	needsDuration := func() error {
		if duration < 1 {
			return fmt.Errorf("core: fault model %q needs a positive duration (got %d)", s, duration)
		}
		return nil
	}
	switch s {
	case "transient":
		return TransientFlip{}, nil
	case "stuck0":
		return StuckAt{Polarity: 0, Duration: duration}, needsDuration()
	case "stuck1":
		return StuckAt{Polarity: 1, Duration: duration}, needsDuration()
	case "intermittent":
		return StuckAt{Polarity: 1, Duration: duration, Random: true}, needsDuration()
	case "permanent":
		return StuckAt{Polarity: 1, Permanent: true}, nil
	case "mbu2":
		return MultiBit{Span: 2}, nil
	}
	return nil, fmt.Errorf("core: unknown fault model %q (want \"transient\", \"stuck0\", \"stuck1\", \"intermittent\", \"permanent\" or \"mbu2\")", s)
}

// FaultModelNames lists the -fault-model flag values in flag-help order.
func FaultModelNames() []string {
	return []string{"transient", "stuck0", "stuck1", "intermittent", "permanent", "mbu2"}
}

// modelArmSalt decorrelates the model's per-trial RNG (intermittent
// durations) from every other stream derived from the campaign seed.
const modelArmSalt = 0x6d6f64656c // "model"

// trialModelSeed derives the model's per-trial RNG seed from (Seed,
// checkpoint, flat trial index) — the same coordinates that pin the bit
// draw, so model randomness is reproducible across schedulers, workers and
// resume, and never touches the bit-draw stream.
func trialModelSeed(seed int64, ck, idx int) int64 {
	return int64(splitmix64(uint64(checkpointSeed(seed, ck))^modelArmSalt) ^ splitmix64(uint64(int64(idx))))
}
