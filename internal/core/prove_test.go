package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"pipefault/internal/prove"
	"pipefault/internal/workload"
)

func TestProveModeStrings(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ProveMode
	}{{"on", ProveOn}, {"off", ProveOff}} {
		got, err := ParseProveMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseProveMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseProveMode("bogus"); err == nil {
		t.Error("ParseProveMode accepted a bogus mode")
	}
	if got := ProveMode(9).String(); got != "prove(9)" {
		t.Errorf("unknown mode renders %q", got)
	}
	if err := (&Config{Workload: workload.Tiny, Prove: ProveMode(9)}).Validate(); err == nil {
		t.Error("Validate accepted an unknown Prove mode")
	}
}

// proveCampaign runs the golden-test campaign (scaled up so sampled rates
// carry statistical weight) under an explicit prover mode and worker count.
func proveCampaign(t *testing.T, mode ProveMode, workers int) *Result {
	t.Helper()
	res, err := Run(Config{
		Workload:    workload.Tiny,
		Checkpoints: 2,
		Horizon:     800,
		Populations: []Population{
			{Name: "l+r", Trials: 30},
			{Name: "l", LatchOnly: true, Trials: 20},
		},
		Seed:    11,
		Workers: workers,
		Prove:   mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestProveEquivalenceMatrix is the prover's statistical oracle: at 1, 4
// and 8 workers, the Prove-on campaign must (a) be bit-identical to every
// other Prove-on run, (b) prove a nonzero population fraction, and (c)
// report re-weighted rates that agree with the full-population (ProveOff)
// campaign within the combined sampling tolerance — the prover
// redistributes trials, it must not shift the estimated physics.
func TestProveEquivalenceMatrix(t *testing.T) {
	off := proveCampaign(t, ProveOff, 1)
	var baseJSON []byte
	for _, workers := range []int{1, 4, 8} {
		name := fmt.Sprintf("w%d", workers)
		on := proveCampaign(t, ProveOn, workers)
		var buf bytes.Buffer
		if err := on.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if baseJSON == nil {
			baseJSON = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), baseJSON) {
			t.Errorf("%s: Prove-on export differs across worker counts", name)
		}
		for popName, p := range on.Pops { //pipelint:unordered-ok per-population assertions are independent
			if p.ProvenFraction() <= 0 {
				t.Errorf("%s/%s: proven fraction is zero; the liveness rule alone should prove bits", name, popName)
			}
			po := off.Pops[popName]
			// Tolerance: both estimates carry sampling error; their
			// worst-case CI95 half-widths bound how far two unbiased
			// estimates of the same rate can sit apart (plus slack for
			// the tiny-trial regime).
			tol := p.WorstCaseCI95() + po.WorstCaseCI95() + 0.05
			for _, o := range []Outcome{OutMatch, OutGray, OutSDC, OutTerminated} {
				got, want := p.OutcomeRate(o), po.OutcomeRate(o)
				if math.Abs(got-want) > tol {
					t.Errorf("%s/%s: %v rate %.3f (prove on) vs %.3f (off), tolerance %.3f",
						name, popName, o, got, want, tol)
				}
			}
			if math.Abs(p.FailureRate()-po.FailureRate()) > tol {
				t.Errorf("%s/%s: failure rate %.3f vs %.3f beyond tolerance %.3f",
					name, popName, p.FailureRate(), po.FailureRate(), tol)
			}
			if math.Abs(p.MaskRate()-po.MaskRate()) > tol {
				t.Errorf("%s/%s: mask rate %.3f vs %.3f beyond tolerance %.3f",
					name, popName, p.MaskRate(), po.MaskRate(), tol)
			}
		}
	}
}

// TestProveCrossCheckOracle runs the soundness oracle over the full Gzip
// checkpoint set: every proven-benign bit the oracle samples must simulate
// to µArch Match full-horizon, and every must-simulate sample must
// classify exactly as its full-horizon run, or the campaign hard-fails. A
// pass is the empirical validation of every prover rule and every
// uarch.ProofHints declaration on a real workload. The subtest keeps its
// "steal" name so the test ID stays stable.
func TestProveCrossCheckOracle(t *testing.T) {
	t.Run("steal", func(t *testing.T) {
		res, err := Run(Config{
			Workload:    workload.Gzip,
			Checkpoints: 3,
			Populations: []Population{
				{Name: "l+r", Trials: 4},
				{Name: "l", LatchOnly: true, Trials: 2},
			},
			Seed:       42,
			Workers:    4,
			CrossCheck: 12,
		})
		if err != nil {
			t.Fatalf("cross-check oracle failed: %v", err)
		}
		for name, p := range res.Pops { //pipelint:unordered-ok per-population assertions are independent
			if p.ProvenFraction() <= 0 {
				t.Errorf("%s: nothing proven on Gzip; oracle ran vacuously", name)
			}
		}
	})
}

// TestCrossCheckCatchesUnsoundHint: an unsound semantic declaration must be
// caught by the oracle as a *CrossCheckError, not silently fold wrong
// proofs into the rates. The test first finds, empirically, a single-entry
// control latch bit whose flip does NOT classify µArch Match at this
// checkpoint, then feeds the prover a consumed-bit mask claiming exactly
// that bit is dead. The mask rule dutifully proves it (the entry
// re-converges), every proven-benign oracle sample lands on it, and the
// cross-check must hard-fail.
func TestCrossCheckCatchesUnsoundHint(t *testing.T) {
	en, g := newTestEngine(t, workload.Tiny, 600)
	h := en.cfg.Horizon
	if n := g.n; h > n {
		h = n
	}
	for _, elem := range []string{"rob.head", "rob.tail", "rob.count", "fe.pc", "lq.head", "sq.head"} {
		e := en.m.F.Elem(elem)
		for bit := 0; bit < e.Width(); bit++ {
			if runTargeted(t, en, g, elem, 0, bit).Outcome == OutMatch {
				continue // genuinely benign flip; the hint would be sound
			}
			// An unsound hint: every bit of elem except `bit` is consumed,
			// so the only "proven" bit is the one we just saw misbehave.
			consumed := (uint64(1)<<uint(e.Width()) - 1) &^ (uint64(1) << uint(bit))
			badHints := prove.Hints{Masks: map[string]uint64{elem: consumed}}
			proof := new(prove.Proof).Compute(en.m.F, g.trace, g.failAt, uint64(h), badHints, prove.RuleMask)
			if proof.ProvenBits(false) == 0 {
				break // entry never re-converges; mask rule proves nothing
			}
			en.cfg.CrossCheck = 4
			err := en.crossCheck(0, proof)
			var ce *CrossCheckError
			if !errors.As(err, &ce) {
				t.Fatalf("%s[0].%d: crossCheck = %v, want a *CrossCheckError", elem, bit, err)
			}
			if ce.Rule != "mask" || ce.Elem != elem || ce.Bit != bit {
				t.Errorf("CrossCheckError = %+v, want mask violation at %s[0].%d", ce, elem, bit)
			}
			if ce.Outcome != OutMatch || ce.RefOutcome == OutMatch {
				t.Errorf("CrossCheckError claims %v against reference %v; want a Match claim the reference refutes", ce.Outcome, ce.RefOutcome)
			}
			if en.cfg.EarlyStop == EarlyStopOff {
				t.Error("crossCheck leaked EarlyStopOff into the worker config")
			}
			return
		}
	}
	t.Fatal("no non-Match control-latch flip found; fixture cannot exercise the oracle")
}

// TestProveResumeIdentity: the prover changes which bits the trial RNG
// lands on, so a ProveOn journal must refuse to resume a ProveOff campaign
// (and vice versa) instead of splicing incompatible trials.
func TestProveResumeIdentity(t *testing.T) {
	cfg := stealTestConfig()
	cfg.JournalPath = filepath.Join(t.TempDir(), "campaign.jsonl")
	if _, err := Run(cfg); err != nil { // default ProveOn
		t.Fatal(err)
	}
	cfg.Prove = ProveOff
	if _, err := Resume(context.Background(), cfg); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("resume with Prove flipped: err = %v, want ErrJournalMismatch", err)
	}
}

// TestMergeMixedProve: merging results from campaigns run under different
// prover modes cannot keep the positional strata-trial pairing, so Merge
// must degrade the merged population to plain sampled rates rather than
// mis-weight.
func TestMergeMixedProve(t *testing.T) {
	on := proveCampaign(t, ProveOn, 1)
	off := proveCampaign(t, ProveOff, 1)
	merged := Merge("mixed", []*Result{on, off})
	for name, p := range merged.Pops { //pipelint:unordered-ok per-population assertions are independent
		if len(p.Proven) != 0 {
			t.Errorf("%s: mixed-mode merge kept %d proven strata", name, len(p.Proven))
		}
		if f := p.ProvenFraction(); f != 0 {
			t.Errorf("%s: mixed-mode merge reports proven fraction %v", name, f)
		}
	}
	both := Merge("both", []*Result{on, proveCampaign(t, ProveOn, 4)})
	for name, p := range both.Pops { //pipelint:unordered-ok per-population assertions are independent
		if len(p.Proven) == 0 {
			t.Errorf("%s: same-mode merge dropped the proven strata", name)
		}
	}
}
