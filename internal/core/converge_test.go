package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"pipefault/internal/mem"
	"pipefault/internal/uarch"
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
	convergeEquivalence(t, Config{
		Workload:    workload.Gzip,
		Checkpoints: 4,
		Populations: []Population{
			{Name: "l+r", Trials: 12},
			{Name: "l", LatchOnly: true, Trials: 6},
		},
		Seed: 4242,
	})
}

// TestConvergeEquivalenceProtected is the same oracle with every Section 4
// protection on: register-file ECC repair on read, pointer ECC,
// instruction parity flushes and the timeout flush all run inside the
// traced golden runs the shortcuts read.
func TestConvergeEquivalenceProtected(t *testing.T) {
	convergeEquivalence(t, Config{
		Workload:    workload.Twolf,
		Protect:     uarch.AllProtections(),
		Checkpoints: 5,
		Populations: []Population{
			{Name: "l+r", Trials: 12},
			{Name: "l", LatchOnly: true, Trials: 6},
		},
		Seed: 4242,
	})
}

// convergeEquivalence runs cfg with early stopping on and off and requires
// identical trials and scatter points. It also requires the shortcuts to
// have resolved some trials, so the comparison cannot pass vacuously.
func convergeEquivalence(t *testing.T, cfg Config) {
	t.Helper()
	var shortcut atomic.Int64
	cfg.OnTrialResolved = func(kind ResolveKind, _ int) {
		if kind == ResolveTaint || kind == ResolveConverge {
			shortcut.Add(1)
		}
	}
	on, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shortcut.Load() == 0 {
		t.Fatal("no trial resolved through an early-stop shortcut")
	}
	cfg.OnTrialResolved = nil
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
// a diverged-but-frozen trial in step with the golden run (keyframe cycle
// equal to the trial cycle) at an absolute stride boundary — fewer
// simulated steps than the reported Cycles (the tail is replayed
// closed-form from the golden monitors) — and the full-horizon loop agrees
// on every field.
func TestConvergeCertificateSkipsTail(t *testing.T) {
	en, g := newTestEngine(t, workload.Tiny, 600)
	var held [2]int // trial and keyframe cycle of the last certificate that held
	testConvergeHook = func(cyc, gcyc int, why convBail) {
		if why == convHeld {
			held = [2]int{cyc, gcyc}
		}
	}
	defer func() { testConvergeHook = nil }()
	tr, elem, entry, bit := convergeSearch(t, en, g,
		func(tr Trial, kind ResolveKind, steps int) bool {
			aligned := held == [2]int{steps, steps}
			held = [2]int{}
			return kind == ResolveConverge && aligned && steps > 0 && steps < int(tr.Cycles)
		})
	var steps int
	en.cfg.OnTrialResolved = func(k ResolveKind, s int) { steps = s }
	fast := runTargeted(t, en, g, elem, entry, bit)
	en.cfg.OnTrialResolved = nil
	if (g.start+uint64(steps))%convStride != 0 {
		t.Errorf("certificate fired after %d steps from cycle %d, not on an absolute convStride=%d boundary", steps, g.start, convStride)
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

// TestConvergeShiftedEquivalence is the equivalence oracle for
// certificates against an earlier golden keyframe: an intermittent Vpr
// campaign in which some trials resolve while lagging the golden run must
// be identical, trial for trial and scatter point for scatter point, to the
// same campaign stepped full-horizon. The configuration is one where such
// resolutions occur; the test fails if none does.
func TestConvergeShiftedEquivalence(t *testing.T) {
	var shifted atomic.Int64
	testConvergeHook = func(cyc, gcyc int, why convBail) {
		if why == convHeld && gcyc < cyc {
			shifted.Add(1)
		}
	}
	defer func() { testConvergeHook = nil }()
	model, err := ParseFaultModel("intermittent", 100)
	if err != nil {
		t.Fatal(err)
	}
	convergeEquivalence(t, Config{
		Workload:    workload.Vpr,
		Model:       model,
		Checkpoints: 3,
		Horizon:     4000,
		Populations: []Population{{Name: "l+r", Trials: 40}},
		Seed:        2,
	})
	if shifted.Load() == 0 {
		t.Fatal("no trial resolved against an earlier golden keyframe")
	}
	t.Logf("%d shifted certificates", shifted.Load())
}

// TestConvergeLaggingTwin: a trial that is the golden run itself, started
// d cycles earlier across a stretch in which nothing retires, lags the
// golden run by exactly d cycles with an empty delta set. The certificate
// must resolve it at the window's first keyframe, d cycles late, and
// replay the rest: Tiny halts inside the horizon, after which the golden
// digests repeat, and the full loop's digest compare matches once the
// lagging trial halts too. Both modes must agree on every field.
func TestConvergeLaggingTwin(t *testing.T) {
	// Find a stretch of at least 4 cycles without a retirement.
	var x, d uint64
	probe, _ := newTestEngine(t, workload.Tiny, 20)
	for m := probe.m; d < 4; {
		r := m.Retired
		m.Step()
		switch {
		case m.Retired != r:
			d = 0
		case d == 0:
			x, d = m.Cycle-1, 1
		default:
			d++
		}
		if m.Halted() {
			t.Fatal("no stretch without a retirement before the halt")
		}
	}
	en, _ := newTestEngine(t, workload.Tiny, x)
	twin := en.m.Clone()
	for twin.Cycle < x+d {
		twin.Step()
	}
	var g *goldenRun
	runSweep(context.Background(), en.cfg, twin, []uint64{twin.Cycle}, nil, nil, func(win *ckWindow) bool {
		g = &win.g
		return true
	})
	en.g = g
	// A stuck-at that drives ms.halted to the 0 it already holds for one
	// cycle leaves the machine untouched, and, not being transient, keeps
	// dead-entry resolution out of the way.
	en.model = StuckAt{Polarity: 0, Duration: 1}

	var held []int
	testConvergeHook = func(cyc, gcyc int, why convBail) {
		if why == convHeld {
			held = append(held, cyc, gcyc)
		}
	}
	defer func() { testConvergeHook = nil }()
	var steps int
	en.cfg.OnTrialResolved = func(_ ResolveKind, s int) { steps = s }
	fast := runTargeted(t, en, g, "ms.halted", 0, 0)
	en.cfg.OnTrialResolved = nil
	if want := []int{g.kfCycle(0) + int(d), g.kfCycle(0)}; !reflect.DeepEqual(held, want) {
		t.Fatalf("certificates held at (trial, keyframe) cycles %v, want %v", held, want)
	}
	t.Logf("trial from cycle %d, %d cycles behind the golden run: certificate after %d steps", x, d, steps)
	en.cfg.EarlyStop = EarlyStopOff
	slow := runTargeted(t, en, g, "ms.halted", 0, 0)
	if fast != slow {
		t.Errorf("lagging twin: certificate %+v != full horizon %+v", fast, slow)
	}
	if slow.Outcome != OutMatch || steps >= int(slow.Cycles) {
		t.Errorf("lagging twin: %v at cycle %d after %d steps, want a Match the certificate reached early", slow.Outcome, slow.Cycles, steps)
	}
}

// TestConvergeCertificateConditions drives tryConverge directly on a
// machine that stepped the fault-free run to the window's first keyframe:
// it equals the keyframe, so the certificate holds with an empty delta set.
// One byte of memory changed fails condition (a), a golden exception at the
// keyframe fails (c), and one retirement too many moves the cursor past the
// keyframe without an attempt — a state match alone does not align the
// event streams.
func TestConvergeCertificateConditions(t *testing.T) {
	en, g := newTestEngine(t, workload.Tiny, 600)
	m := en.m
	en.mon.reset(g)
	m.OnRetire = en.onRetire
	gc := g.kfCycle(0)
	for m.Cycle < g.start+uint64(gc) {
		m.Step()
	}
	m.OnRetire = nil
	var whys []convBail
	testConvergeHook = func(cyc, gcyc int, why convBail) {
		if cyc != gc || gcyc != gc {
			t.Errorf("decision at trial cycle %d, keyframe %d, want both %d", cyc, gcyc, gc)
		}
		whys = append(whys, why)
	}
	defer func() { testConvergeHook = nil }()
	try := func(name string, want convBail) {
		t.Helper()
		whys = nil
		var kc kfCursor
		kc.seek(g, 0)
		if en.mon.idx < kc.ev {
			t.Fatalf("%s: trial retired %d events, keyframe %d", name, en.mon.idx, kc.ev)
		}
		_, ok := en.tryConverge(Trial{}, gc, en.cfg.Horizon, streaks{}, &kc)
		if ok != (want == convHeld) || len(whys) != 1 || whys[0] != want {
			t.Errorf("%s: held %v, decisions %v, want [%d]", name, ok, whys, want)
		}
	}
	try("fault-free", convHeld)

	addr := m.Mem.Pages()[0] << mem.PageShift
	b := m.Mem.LoadByte(addr)
	m.Mem.StoreByte(addr, b^1)
	try("memory differs", bailMemDigest)
	m.Mem.StoreByte(addr, b)

	exc := g.excAt
	g.excAt = uint64(gc)
	try("golden exception at the keyframe", bailAlign)
	g.excAt = exc

	en.mon.idx++
	try("one retirement too many", bailAhead)
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
		if g.trace.CopyDst(arch.EntryIndex(i)) != spec.EntryIndex(i)+1 ||
			g.trace.LastCopy(spec.EntryIndex(i)) <= convStride {
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
