package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pipefault/internal/workload"
)

// TestConvergeEquivalenceMatrix is the correctness oracle of convergence
// termination across worker counts: at 1 and 8 workers the early-stopped
// campaign must be bit-identical — trial for trial, including Cycles — to
// the full-horizon run, and must reproduce the
// checked-in export goldens byte for byte. The goldens predate early
// stopping entirely, so they pin that the trajectory trace and
// re-convergence certificate moved classification earlier in wall time but
// nowhere else.
func TestConvergeEquivalenceMatrix(t *testing.T) {
	wantJSON, err := os.ReadFile(filepath.Join("testdata", "export_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(filepath.Join("testdata", "export_golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		name := fmt.Sprintf("w%d", workers)
		conv := earlyStopCampaign(t, EarlyStopOn, workers)
		full := earlyStopCampaign(t, EarlyStopOff, workers)
		resultsEqual(t, name+"-on-vs-off", conv, full)
		gotJSON, gotCSV := exportBytes(t, conv)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: early-stopped JSON export deviates from golden", name)
		}
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Errorf("%s: early-stopped CSV export deviates from golden", name)
		}
	}
}

// TestConvergeEquivalenceGzip is the early-stop equivalence oracle on a
// real workload: a Gzip campaign with every shortcut on (dead-entry
// resolution, convergence, with the prover) must be identical
// — trial for trial, Cycles included, and scatter point for scatter point
// — to the same campaign stepped full-horizon.
func TestConvergeEquivalenceGzip(t *testing.T) {
	cfg := Config{
		Workload:    workload.Gzip,
		Checkpoints: 4,
		Populations: []Population{
			{Name: "l+r", Trials: 12},
			{Name: "l", LatchOnly: true, Trials: 6},
		},
		Seed: 4242,
	}
	on, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.EarlyStop = EarlyStopOff
	off, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(on.Pops, off.Pops) {
		t.Error("early-stopped trials differ from the full-horizon campaign's")
	}
	if !reflect.DeepEqual(on.Scatter, off.Scatter) {
		t.Error("early-stopped scatter differs from the full-horizon campaign's")
	}
}

// convergeSearch runs early-stopped trials over a deterministic enumeration
// of injectable bits until pick returns true, returning that trial and its
// instrumentation. The worker RNG is never involved: targeted trials take
// explicit BitRefs, so convergence termination cannot perturb the campaign
// draw sequence by construction (and the equivalence matrix pins it
// end-to-end).
func convergeSearch(t *testing.T, en *worker, g *goldenRun,
	pick func(tr Trial, kind ResolveKind, steps int) bool) (Trial, string, int, int) {
	t.Helper()
	var kind ResolveKind
	var steps int
	en.cfg.OnTrialResolved = func(k ResolveKind, s int) { kind, steps = k, s }
	defer func() { en.cfg.OnTrialResolved = nil }()
	for _, e := range en.m.F.Elems() {
		if !e.Injectable() {
			continue
		}
		entries := e.Entries()
		if entries > 8 {
			entries = 8
		}
		for i := 0; i < entries; i++ {
			for _, bit := range []int{0, e.Width() - 1} {
				tr := runTargeted(t, en, g, e.Name(), i, bit)
				if pick(tr, kind, steps) {
					return tr, e.Name(), i, bit
				}
			}
		}
	}
	t.Fatal("no trial matching the predicate found in the search population")
	return Trial{}, "", 0, 0
}

// TestConvergeTrialStopsAtReconvergence: a trial whose corruption is
// overwritten mid-flight re-converges to the golden trajectory; the
// composite digest detects it the same cycle, the trial resolves as
// convergence after exactly that many simulated steps, and the full-horizon
// loop agrees on every field.
func TestConvergeTrialStopsAtReconvergence(t *testing.T) {
	en, g := newTestEngine(t, workload.Tiny, 600)
	tr, elem, entry, bit := convergeSearch(t, en, g,
		func(tr Trial, kind ResolveKind, steps int) bool {
			return kind == ResolveConverge && steps > 0 && steps == int(tr.Cycles)
		})
	if tr.Cycles <= 0 || int(tr.Cycles) >= en.cfg.Horizon {
		t.Fatalf("re-converged trial reports Cycles=%d, want within (0, horizon)", tr.Cycles)
	}
	en.cfg.EarlyStop = EarlyStopOff
	slow := runTargeted(t, en, g, elem, entry, bit)
	if tr != slow {
		t.Errorf("%s[%d] bit %d: converge %+v != full horizon %+v", elem, entry, bit, tr, slow)
	}
}

// TestConvergeCertificateSkipsTail: the re-convergence certificate resolves
// a diverged-but-frozen trial at a stride boundary — fewer simulated steps
// than the reported Cycles (the tail is replayed closed-form from the
// golden monitors) — and the full-horizon loop agrees on every field.
func TestConvergeCertificateSkipsTail(t *testing.T) {
	en, g := newTestEngine(t, workload.Tiny, 600)
	tr, elem, entry, bit := convergeSearch(t, en, g,
		func(tr Trial, kind ResolveKind, steps int) bool {
			return kind == ResolveConverge && steps > 0 && steps < int(tr.Cycles)
		})
	var steps int
	en.cfg.OnTrialResolved = func(k ResolveKind, s int) { steps = s }
	fast := runTargeted(t, en, g, elem, entry, bit)
	en.cfg.OnTrialResolved = nil
	if steps%convStride != 0 {
		t.Errorf("certificate fired after %d steps, not a convStride=%d boundary", steps, convStride)
	}
	en.cfg.EarlyStop = EarlyStopOff
	slow := runTargeted(t, en, g, elem, entry, bit)
	if fast != slow {
		t.Errorf("%s[%d] bit %d: certificate %+v != full horizon %+v", elem, entry, bit, fast, slow)
	}
	if fast != tr {
		t.Errorf("certificate trial not reproducible: %+v then %+v", tr, fast)
	}
}

// TestConvergeCopyClosureDrain: the full-flush recovery drain
// wholesale-copies architectural renaming state over speculative state, and
// those copies are traced as edges rather than behavioral touches. A
// corrupted arch-RAT entry for a register the program never uses is
// re-copied into the spec RAT on every flush; the certificate must chase
// the copy edge (the spec side is never behaviorally read either) and
// resolve the trial at an early stride boundary instead of simulating the
// full horizon — with the full-horizon loop agreeing on every field.
func TestConvergeCopyClosureDrain(t *testing.T) {
	en, g := newTestEngine(t, workload.Gzip, 2000)
	var kind ResolveKind
	var steps int
	en.cfg.OnTrialResolved = func(k ResolveKind, s int) { kind, steps = k, s }
	defer func() { en.cfg.OnTrialResolved = nil }()
	arch := en.m.F.Elem("rat.arch")
	spec := en.m.F.Elem("rat.spec")
	if arch == nil || spec == nil {
		t.Fatal("renaming elements not found")
	}
	found := false
	for i := 0; i < arch.Entries(); i++ {
		// Only the drain-coupled case matters here: the golden run must have
		// copied this arch entry into its spec twin after the first stride
		// boundary, or the plain frozen-delta certificate already covers it.
		if g.trace.CopyDst[arch.EntryIndex(i)] != spec.EntryIndex(i)+1 ||
			g.trace.LastCopy[spec.EntryIndex(i)] <= convStride {
			continue
		}
		fast := runTargeted(t, en, g, "rat.arch", i, 0)
		if kind != ResolveConverge || steps >= int(fast.Cycles) {
			continue
		}
		found = true
		en.cfg.EarlyStop = EarlyStopOff
		slow := runTargeted(t, en, g, "rat.arch", i, 0)
		en.cfg.EarlyStop = EarlyStopOn
		if fast != slow {
			t.Errorf("rat.arch[%d] bit 0: certificate %+v != full horizon %+v", i, fast, slow)
		}
		break
	}
	if !found {
		t.Fatal("no drain-coupled arch-RAT trial certified; copy-closure chain inert")
	}
}

// TestConvergeJournalIdentityExcluded: EarlyStop never perturbs results, so
// it must stay OUT of the campaign journal identity — a journal written
// under one mode is resumable under any other.
func TestConvergeJournalIdentityExcluded(t *testing.T) {
	mk := func(es EarlyStopMode) journalHeader {
		cfg := stealTestConfig()
		cfg.EarlyStop = es
		cfg.setDefaults()
		return journalHeaderFor(&cfg)
	}
	if on, off := mk(EarlyStopOn), mk(EarlyStopOff); !on.equal(off) {
		t.Errorf("journal identity differs between EarlyStop on and off: %+v vs %+v", on, off)
	}
}

// TestResumeFlipsEarlyStopMode: a campaign started under the full-horizon
// loop, killed mid-flight, and resumed with early stopping on must
// reproduce the uninterrupted run byte for byte — the journal splices
// full-horizon units into an early-stopped completion and nothing shows.
func TestResumeFlipsEarlyStopMode(t *testing.T) {
	cfg := stealTestConfig()
	cfg.EarlyStop = EarlyStopOff
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, baseCSV := exportBytes(t, base)

	jcfg := cfg
	jcfg.JournalPath = filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jcfg.OnProgress = func(p Progress) {
		if p.TrialsDone >= 1 {
			cancel()
		}
	}
	if _, err := RunContext(ctx, jcfg); err != nil {
		var cerr *CanceledError
		if !errors.As(err, &cerr) {
			t.Fatalf("interrupted run: %v", err)
		}
	}

	jcfg.OnProgress = nil
	jcfg.EarlyStop = EarlyStopOn
	resumed, err := Resume(context.Background(), jcfg)
	if err != nil {
		t.Fatalf("resume with early stopping on: %v", err)
	}
	gotJSON, gotCSV := exportBytes(t, resumed)
	if !bytes.Equal(gotJSON, baseJSON) {
		t.Errorf("mode-flipped resume JSON differs from the uninterrupted run")
	}
	if !bytes.Equal(gotCSV, baseCSV) {
		t.Errorf("mode-flipped resume CSV differs from the uninterrupted run")
	}
}

// TestConvergeModeStrings pins the default early-stop mode and the
// resolution-kind names.
func TestConvergeModeStrings(t *testing.T) {
	if EarlyStopOn != 0 {
		t.Error("EarlyStopOn must be the zero value (the Config default)")
	}
	for k, want := range map[ResolveKind]string{
		ResolveTaint: "taint", ResolveQuiesce: "quiescence",
		ResolveConverge: "convergence", ResolveMonitor: "monitor",
		ResolveHorizon: "full-horizon", ResolveAnomaly: "anomaly",
	} {
		if k.String() != want {
			t.Errorf("ResolveKind(%d).String() = %q, want %q", k, k, want)
		}
	}
}
