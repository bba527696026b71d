package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pipefault/internal/state"
	"pipefault/internal/workload"
)

// earlyStopCampaign runs the golden-test campaign (the same configuration
// whose exports are pinned in testdata/) under an explicit early-stop mode
// and worker count.
func earlyStopCampaign(t *testing.T, es EarlyStopMode, workers int) *Result {
	t.Helper()
	cfg := goldenConfig()
	cfg.Workers = workers
	cfg.EarlyStop = es
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEarlyStopEquivalenceMatrix is the correctness oracle of the
// early-stop machinery: at 1 and 4 workers the early-stopped campaign must
// be bit-identical — trial for trial, including Cycles — to the
// full-horizon run, and both must reproduce the checked-in export goldens
// byte for byte. The goldens predate early stopping entirely, so they pin
// that classification moved earlier in wall time but nowhere else. A third
// run arms the CrossCheck oracle: it must pass and, being abort-only,
// leave the exports byte-identical too.
func TestEarlyStopEquivalenceMatrix(t *testing.T) {
	wantJSON, err := os.ReadFile(filepath.Join("testdata", "export_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(filepath.Join("testdata", "export_golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("w%d", workers)
		on := earlyStopCampaign(t, EarlyStopOn, workers)
		full := earlyStopCampaign(t, EarlyStopOff, workers)
		resultsEqual(t, name, on, full)
		cfg := goldenConfig()
		cfg.Workers = workers
		cfg.CrossCheck = 8
		checked, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: cross-checked campaign: %v", name, err)
		}
		for _, run := range []struct {
			mode string
			res  *Result
		}{{"on", on}, {"off", full}, {"crosscheck", checked}} {
			gotJSON, gotCSV := exportBytes(t, run.res)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("%s-%s: JSON export deviates from golden", name, run.mode)
			}
			if !bytes.Equal(gotCSV, wantCSV) {
				t.Errorf("%s-%s: CSV export deviates from golden", name, run.mode)
			}
		}
	}
}

// deadBit scans the golden liveness trace for an injectable entry the
// closed-form classifier deems dead (eligible), returning one bit of it.
func deadBit(t *testing.T, en *worker, g *goldenRun) (string, int) {
	t.Helper()
	horizon := en.cfg.Horizon
	if n := g.n; horizon > n {
		horizon = n
	}
	for _, e := range en.m.F.Elems() {
		if !e.Injectable() {
			continue
		}
		for i := 0; i < e.Entries(); i++ {
			if _, dead := g.trace.ProvenDead(e.EntryIndex(i), uint64(horizon)); dead {
				return e.Name(), i
			}
		}
	}
	t.Fatal("no dead entry found in the golden trace")
	return "", 0
}

// TestEarlyStopDeadEntryFastPath: a trial on a provably dead entry must
// resolve without simulating a single cycle, with the exact outcome,
// failure mode and cycle count the full-horizon loop produces.
func TestEarlyStopDeadEntryFastPath(t *testing.T) {
	en, g := newTestEngine(t, workload.Tiny, 600)
	elem, entry := deadBit(t, en, g)

	var steps []int
	en.cfg.OnTrialResolved = func(_ ResolveKind, s int) { steps = append(steps, s) }

	fast := runTargeted(t, en, g, elem, entry, 0)
	if len(steps) != 1 || steps[0] != 0 {
		t.Fatalf("dead-entry trial simulated %v cycles, want [0]", steps)
	}
	en.cfg.EarlyStop = EarlyStopOff
	slow := runTargeted(t, en, g, elem, entry, 0)
	if len(steps) != 2 || steps[1] != int(slow.Cycles) {
		t.Fatalf("full-horizon trial reported steps %v, want its own cycle count %d", steps, slow.Cycles)
	}
	if fast != slow {
		t.Errorf("fast path %+v != full horizon %+v", fast, slow)
	}
	if steps[1] == 0 {
		t.Error("full-horizon oracle did not step at all")
	}
}

// TestEarlyStopHaltingFlip: a trial that halts the machine (flip of
// ms.halted) stops writing state, so it never retires again and the trial
// loop's own locked monitor classifies it — identically, outcome and cycle
// count, with early stopping on and off.
func TestEarlyStopHaltingFlip(t *testing.T) {
	en, g := newTestEngine(t, workload.Tiny, 600)

	var steps []int
	en.cfg.OnTrialResolved = func(_ ResolveKind, s int) { steps = append(steps, s) }

	fast := runTargeted(t, en, g, "ms.halted", 0, 0)
	en.cfg.EarlyStop = EarlyStopOff
	slow := runTargeted(t, en, g, "ms.halted", 0, 0)

	if fast != slow {
		t.Fatalf("early-stopped trial %+v != full horizon %+v", fast, slow)
	}
	if fast.Outcome != OutTerminated || fast.Mode != FailLocked {
		t.Fatalf("halting flip classified %v/%v, want Terminated/locked", fast.Outcome, fast.Mode)
	}
	if len(steps) != 2 {
		t.Fatalf("expected two instrumented trials, got %v", steps)
	}
	if steps[1] != int(slow.Cycles) {
		t.Fatalf("full loop simulated %d cycles, want %d", steps[1], slow.Cycles)
	}
}

// syntheticGolden builds a golden run of h cycles whose per-cycle
// retire and illegal-fetch bits are set where the predicates say, with no
// exception.
func syntheticGolden(h uint64, retired, illegal func(c uint64) bool) *goldenRun {
	g := &goldenRun{cycles: make([]cycleRec, h), n: int(h)}
	for c := uint64(1); c <= h; c++ {
		if retired(c) {
			g.cycles[c-1].flags |= cycRetired
		}
		if illegal(c) {
			g.cycles[c-1].flags |= cycIllegal
		}
	}
	return g
}

// TestFirstFailure pins the monitor replay the closed-form classifiers
// share (goldenRun.replay with no lag and no digest compare): the trial
// loop's same-cycle order (exception, locked, iTLB), the carried streak
// state, the horizon and the starting cycle.
func TestFirstFailure(t *testing.T) {
	always := func(uint64) bool { return true }
	never := func(uint64) bool { return false }
	const h = 1000
	check := func(name string, g *goldenRun, from uint64, st streaks, wantAt uint64, wantMode FailureMode) {
		t.Helper()
		if at, mode := g.replay(from, st, h, 0, false); at != wantAt || mode != wantMode {
			t.Errorf("%s: replay = (%d, %v), want (%d, %v)", name, at, mode, wantAt, wantMode)
		}
	}

	// A retiring exception beats a streak firing on the same cycle.
	stalled := syntheticGolden(h, never, never)
	check("locked alone", stalled, 0, streaks{}, lockedCycles, FailLocked)
	stalled.excAt, stalled.excMode = lockedCycles, FailDTLB
	check("exception ties locked", stalled, 0, streaks{}, lockedCycles, FailDTLB)

	// Locked beats iTLB when both reach their thresholds on one cycle.
	both := syntheticGolden(h, never, func(c uint64) bool { return c > lockedCycles-itlbStreak })
	check("locked ties iTLB", both, 0, streaks{}, lockedCycles, FailLocked)
	illegal := syntheticGolden(h, always, always)
	check("iTLB alone", illegal, 0, streaks{}, itlbStreak, FailITLB)

	// The carried streak state counts toward both thresholds.
	check("carried no-retire", stalled, 100, streaks{noRetire: lockedCycles - 5}, 105, FailLocked)
	check("carried illegal", illegal, 100, streaks{illegal: itlbStreak - 3}, 103, FailITLB)
	check("carried illegal reset", syntheticGolden(h, always, func(c uint64) bool { return c != 101 }),
		100, streaks{illegal: itlbStreak - 1}, 101+itlbStreak, FailITLB)

	// Nothing fires by h.
	check("healthy", syntheticGolden(h, always, never), 0, streaks{}, 0, FailNone)
	if at, mode := stalled.replay(0, streaks{}, lockedCycles-1, 0, false); at != 0 || mode != FailNone {
		t.Errorf("locked past h: replay = (%d, %v), want (0, none)", at, mode)
	}

	// from excludes earlier cycles: an exception at or before it is gone.
	exc := syntheticGolden(h, always, never)
	exc.excAt, exc.excMode = 10, FailExcept
	check("exception after from", exc, 9, streaks{}, 10, FailExcept)
	check("exception at from", exc, 10, streaks{}, 0, FailNone)
}

// TestFirstFailureShifted pins the replay of a trial that runs lag cycles
// behind the golden run: golden cycle c is trial cycle c+lag for the
// exception and the counting monitors, nothing past trial cycle h fires,
// and with an empty delta set the digest compare pairs the golden digest
// at c with the golden digest at c+lag, after the monitors of that cycle —
// the loop's order. Each expected cycle is the one the trial loop reaches
// stepping a machine that repeats the golden run lag cycles late.
func TestFirstFailureShifted(t *testing.T) {
	always := func(uint64) bool { return true }
	never := func(uint64) bool { return false }
	const h = 1000
	check := func(name string, g *goldenRun, from uint64, st streaks, lag uint64, same bool, wantAt uint64, wantMode FailureMode) {
		t.Helper()
		if at, mode := g.replay(from, st, h, lag, same); at != wantAt || mode != wantMode {
			t.Errorf("%s: replay = (%d, %v), want (%d, %v)", name, at, mode, wantAt, wantMode)
		}
	}

	// The exception and both monitors land lag cycles late.
	exc := syntheticGolden(h, always, never)
	exc.excAt, exc.excMode = 300, FailDTLB
	check("exception", exc, 200, streaks{}, 25, false, 325, FailDTLB)
	check("exception past h", exc, 200, streaks{}, h-299, false, 0, FailNone)
	stalled := syntheticGolden(h, never, never)
	check("locked", stalled, 100, streaks{}, 30, false, 100+lockedCycles+30, FailLocked)
	check("locked, carried streak", stalled, 100, streaks{noRetire: lockedCycles - 5}, 30, false, 135, FailLocked)
	check("locked past h", stalled, 100, streaks{}, h-lockedCycles-100, false, h, FailLocked)
	check("locked one past h", stalled, 100, streaks{}, h-lockedCycles-99, false, 0, FailNone)
	illegal := syntheticGolden(h, always, always)
	check("iTLB, carried streak", illegal, 100, streaks{illegal: itlbStreak - 3}, 7, false, 110, FailITLB)

	// An empty delta set over repeating golden digests: every golden digest
	// is distinct except that cycle 520 repeats cycle 500's, so a trial 20
	// cycles late matches at trial cycle 520 (golden 500 against golden
	// 520), and at no other lag.
	repeating := func(g *goldenRun) *goldenRun {
		for c := 1; c <= h; c++ {
			g.cycles[c-1].digest = splitmix64(uint64(c))
		}
		g.cycles[519].digest = g.digest(500)
		return g
	}
	rep := repeating(syntheticGolden(h, always, never))
	check("repeat", rep, 300, streaks{}, 20, true, 520, FailNone)
	check("repeat, delta set not empty", rep, 300, streaks{}, 20, false, 0, FailNone)
	check("repeat, other lag", rep, 300, streaks{}, 19, true, 0, FailNone)
	check("repeat, earlier keyframe", rep, 100, streaks{}, 20, true, 520, FailNone)
	check("repeat already passed", rep, 500, streaks{}, 20, true, 0, FailNone)
	// The monitors of a cycle come before its digest compare.
	rep.excAt, rep.excMode = 500, FailExcept
	check("exception on the match cycle", rep, 300, streaks{}, 20, true, 520, FailExcept)
	rep.excAt = 499
	check("exception before the match", rep, 300, streaks{}, 20, true, 519, FailExcept)
	check("locked on the match cycle", repeating(syntheticGolden(h, never, never)), 300, streaks{}, 20, true, 520, FailLocked)
}

// TestEarlyStopModeStrings pins the flag-facing names and the parser,
// which accepts exactly "on" and "off".
func TestEarlyStopModeStrings(t *testing.T) {
	if s := EarlyStopMode(99).String(); s == "" {
		t.Error("unknown EarlyStopMode must still print")
	}
	for _, tc := range []struct {
		in   string
		want EarlyStopMode
	}{{"on", EarlyStopOn}, {"off", EarlyStopOff}} {
		got, err := ParseEarlyStopMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEarlyStopMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	for _, bad := range []string{"bogus", "taint", "converge"} {
		if _, err := ParseEarlyStopMode(bad); err == nil {
			t.Errorf("ParseEarlyStopMode accepted %q", bad)
		}
	}
	if err := (&Config{Workload: workload.Tiny, EarlyStop: EarlyStopMode(9)}).Validate(); err == nil {
		t.Error("Validate accepted an unknown EarlyStop mode")
	}
}

// TestCrossCheckCatchesTamperedTrace: the oracle must catch an unsound
// shortcut on the default transient model, with no proof in play. Swapping
// the golden run's touch trace for an empty one erases every read stamp,
// so every entry looks never read and dead-entry resolution classifies
// live injections from the golden run's own monitors. The campaign's run of a sampled bit
// then disagrees with its full-horizon run, and the must-simulate half of
// the oracle has to report it.
func TestCrossCheckCatchesTamperedTrace(t *testing.T) {
	en, g := newTestEngine(t, workload.Tiny, 600)
	en.cfg.Prove = ProveOff
	en.cfg.EarlyStop = EarlyStopOn
	en.cfg.CrossCheck = 8
	if !en.model.Transient() {
		t.Fatal("fixture needs the transient model")
	}
	g.trace = &state.WindowTrace{}
	err := en.crossCheck(0, nil)
	var ce *CrossCheckError
	if !errors.As(err, &ce) {
		t.Fatalf("crossCheck = %v, want a *CrossCheckError", err)
	}
	t.Logf("oracle: %v", err)
	if ce.Rule != "" {
		t.Errorf("Rule = %q, want a must-simulate sample (no proof ran)", ce.Rule)
	}
	if ce.Outcome == ce.RefOutcome {
		t.Errorf("claimed %v/%v in %d cycles against reference %v/%v in %d cycles; want differing outcomes",
			ce.Outcome, ce.Mode, ce.Cycles, ce.RefOutcome, ce.RefMode, ce.RefCycles)
	}
	if en.cfg.EarlyStop != EarlyStopOn {
		t.Error("crossCheck leaked EarlyStopOff into the worker config")
	}
}
