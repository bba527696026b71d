package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pipefault/internal/state"
)

// sweepIdx samples up to three indices of a range: first, middle, last.
func sweepIdx(n int) []int {
	switch {
	case n <= 0:
		return nil
	case n == 1:
		return []int{0}
	case n == 2:
		return []int{0, 1}
	}
	return []int{0, n / 2, n - 1}
}

// TestContainmentSoak sweeps injections across the full frozen bit
// population — every injectable element, sampled entries and bits — and
// asserts that no trial, whatever it does to the machine, escapes the
// containment boundary or leaves a trace: after every contained trial the
// machine digest must equal the checkpoint digest, so a trial that
// panicked (or merely corrupted aggressively) cannot perturb the trials
// after it.
func TestContainmentSoak(t *testing.T) {
	cfg := stealTestConfig()
	cfg.Horizon = 300 // enough cycles for outcomes; keeps the sweep fast
	newMachine, _, total := campaignFixture(t, &cfg)

	m := newMachine()
	for m.Cycle < total/3 && !m.Halted() {
		m.Step()
	}
	if m.Halted() {
		t.Fatal("machine halted before the checkpoint")
	}
	w := newWorker(cfg, m)

	// The checkpoint's golden run, from a one-checkpoint sweep, then the
	// journal brackets a checkpoint's trials run under.
	w.g = sweepGolden(w)
	m.BeginJournal()
	m.Mem.BeginUndo()

	base := m.Digest()
	swept, elems, anomalies := 0, 0, 0
	for _, e := range m.F.Elems() {
		if !e.Injectable() {
			continue
		}
		elems++
		for _, entry := range sweepIdx(e.Entries()) {
			for _, bit := range sweepIdx(e.Width()) {
				trial := w.runTrialContained(state.BitRef{Elem: e, Entry: entry, Bit: bit}, 0, swept)
				swept++
				if trial.Outcome == OutAnomaly {
					anomalies++
				}
				if d := m.Digest(); d != base {
					t.Fatalf("digest diverged after injecting %s[%d] bit %d (outcome %v): %#x != %#x",
						e.Name(), entry, bit, trial.Outcome, d, base)
				}
			}
		}
	}
	m.CommitJournal()
	m.Mem.Rollback()
	if swept == 0 {
		t.Fatal("sweep covered no injections")
	}
	t.Logf("swept %d injections across %d elements; %d anomalies contained", swept, elems, anomalies)
}

// TestInducedPanicAnomaly: a trial that panics on both the original
// attempt and the fresh-restore retry must complete the campaign with
// exactly one OutAnomaly trial carrying the panic record, and every other
// trial must be bit-identical to the panic-free baseline — the anomaly
// must not leak into its neighbors. Exercised on a parallel worker pool,
// where the wedged trial's worker goes on to run other checkpoints.
func TestInducedPanicAnomaly(t *testing.T) {
	const wedgeCk, wedgeIdx = 1, 2
	t.Run("steal", func(t *testing.T) {
		cfg := stealTestConfig()
		cfg.Workers = 4
		base, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		testTrialHook = func(ck, idx, attempt int) {
			if ck == wedgeCk && idx == wedgeIdx {
				panic("induced trial wedge")
			}
		}
		defer func() { testTrialHook = nil }()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("campaign died instead of containing the panic: %v", err)
		}

		anomalies := 0
		for name, p := range res.Pops { //pipelint:unordered-ok assertions are per-population; no ordered output
			bp := base.Pops[name]
			if len(p.Trials) != len(bp.Trials) {
				t.Fatalf("%s: %d trials, baseline %d", name, len(p.Trials), len(bp.Trials))
			}
			for i, tr := range p.Trials {
				if tr.Outcome == OutAnomaly {
					anomalies++
					a := tr.Anomaly
					if a == nil {
						t.Fatalf("%s trial %d: OutAnomaly without an Anomaly record", name, i)
					}
					if !strings.Contains(a.Panic, "induced trial wedge") {
						t.Errorf("anomaly panic = %q, want the induced wedge", a.Panic)
					}
					if a.Stack == "" || a.Attempts != 2 || a.Checkpoint != wedgeCk {
						t.Errorf("anomaly record incomplete: attempts=%d ck=%d stack=%d bytes",
							a.Attempts, a.Checkpoint, len(a.Stack))
					}
					bt := bp.Trials[i]
					if tr.Elem != bt.Elem || tr.Bit != bt.Bit || tr.Checkpoint != bt.Checkpoint {
						t.Errorf("anomaly coordinates (%s bit %d ck %d) drifted from baseline (%s bit %d ck %d): containment perturbed the RNG stream",
							tr.Elem, tr.Bit, tr.Checkpoint, bt.Elem, bt.Bit, bt.Checkpoint)
					}
					continue
				}
				if tr != bp.Trials[i] {
					t.Errorf("%s trial %d differs from baseline after a contained anomaly: %+v != %+v",
						name, i, tr, bp.Trials[i])
				}
			}
		}
		if anomalies != 1 {
			t.Fatalf("%d anomalies, want exactly 1", anomalies)
		}
	})
}

// TestTransientPanicRetry: a panic on the first attempt only (a one-shot
// artifact, not a property of the injection) must be absorbed by the
// fresh-restore retry — the campaign result is fully identical to the
// panic-free baseline, no anomaly recorded.
func TestTransientPanicRetry(t *testing.T) {
	cfg := stealTestConfig()
	cfg.Workers = 4
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var fired atomic.Int32
	testTrialHook = func(ck, idx, attempt int) {
		if ck == 1 && idx == 2 && attempt == 0 {
			fired.Add(1)
			panic("transient glitch")
		}
	}
	defer func() { testTrialHook = nil }()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fired.Load() == 0 {
		t.Fatal("transient panic hook never fired")
	}
	resultsEqual(t, "transient-retry", base, res)
}

// TestWatchdogExpiry: with a fake clock that blows the budget at the
// first watchdog check, every trial that survives to the first stride
// boundary must be killed as OutAnomaly; trials classifying inside the
// first stride (early convergence or an early exception) legitimately
// escape the check. The campaign must still complete and must report at
// least one expiry.
func TestWatchdogExpiry(t *testing.T) {
	cfg := stealTestConfig()
	cfg.Workers = 2
	cfg.TrialTimeout = time.Millisecond
	var tick atomic.Int64
	cfg.Clock = func() int64 { return tick.Add(int64(time.Millisecond)) }

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	expired := 0
	for name, p := range res.Pops { //pipelint:unordered-ok assertions are per-population; no ordered output
		if p.Total() == 0 {
			t.Fatalf("%s: no trials ran", name)
		}
		for i, tr := range p.Trials {
			if tr.Outcome == OutAnomaly {
				expired++
				a := tr.Anomaly
				if a == nil || !strings.Contains(a.Panic, "watchdog expired") {
					t.Fatalf("%s trial %d: anomaly without a watchdog record: %+v", name, i, a)
				}
				if a.Attempts != 1 {
					t.Errorf("%s trial %d: watchdog expiry retried (%d attempts)", name, i, a.Attempts)
				}
				if tr.Cycles < watchdogStride || tr.Cycles%watchdogStride != 0 {
					t.Errorf("%s trial %d: expired at cycle %d, not a stride boundary", name, i, tr.Cycles)
				}
				continue
			}
			// A classified trial must have beaten the first watchdog check.
			if tr.Cycles >= watchdogStride {
				t.Errorf("%s trial %d: classified %v at cycle %d despite an always-expired clock",
					name, i, tr.Outcome, tr.Cycles)
			}
		}
		if got := p.Classified() + p.AnomalyCount(); got != p.Total() {
			t.Errorf("%s: %d classified + %d anomalies != %d total",
				name, p.Classified(), p.AnomalyCount(), p.Total())
		}
	}
	if expired == 0 {
		t.Fatal("no trial ever hit the watchdog")
	}
	if s := res.String(); !strings.Contains(s, "anom") {
		t.Errorf("summary does not surface the anomalies: %s", s)
	}
}
