package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"pipefault/internal/state"
	"pipefault/internal/workload"
)

// TestParseFaultModel: the flag grammar maps to models, rejects unknown
// names, and demands a positive duration exactly for the windowed models.
func TestParseFaultModel(t *testing.T) {
	cases := []struct {
		name     string
		duration int
		want     string // expected String(); "" means an error is expected
	}{
		{"transient", 100, "transient"},
		{"transient", 0, "transient"}, // duration irrelevant for one-shot models
		{"stuck0", 40, "stuck0:40"},
		{"stuck1", 40, "stuck1:40"},
		{"intermittent", 40, "intermittent1:40"},
		{"permanent", 0, "permanent1"}, // duration irrelevant for permanent
		{"mbu2", 0, "mbu2"},
		{"stuck0", 0, ""},
		{"stuck1", -3, ""},
		{"intermittent", 0, ""},
		{"bogus", 100, ""},
		{"", 100, ""},
	}
	for _, c := range cases {
		m, err := ParseFaultModel(c.name, c.duration)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseFaultModel(%q, %d) = %v, want error", c.name, c.duration, m)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFaultModel(%q, %d): %v", c.name, c.duration, err)
			continue
		}
		if got := m.String(); got != c.want {
			t.Errorf("ParseFaultModel(%q, %d).String() = %q, want %q", c.name, c.duration, got, c.want)
		}
	}
	for _, name := range FaultModelNames() {
		if _, err := ParseFaultModel(name, 100); err != nil {
			t.Errorf("FaultModelNames lists %q but ParseFaultModel rejects it: %v", name, err)
		}
	}
}

// TestModelIdent: the journal-identity token is empty for the default model
// (nil and explicit TransientFlip are the same campaign, and pre-interface
// journals carry no fault_model field) and the canonical name otherwise.
func TestModelIdent(t *testing.T) {
	cases := []struct {
		m    FaultModel
		want string
	}{
		{nil, ""},
		{TransientFlip{}, ""},
		{StuckAt{Polarity: 1, Duration: 50}, "stuck1:50"},
		{StuckAt{Polarity: 0, Duration: 9}, "stuck0:9"},
		{StuckAt{Polarity: 1, Duration: 50, Random: true}, "intermittent1:50"},
		{StuckAt{Polarity: 1, Permanent: true}, "permanent1"},
		{MultiBit{Span: 2}, "mbu2"},
	}
	for _, c := range cases {
		if got := modelIdent(c.m); got != c.want {
			t.Errorf("modelIdent(%v) = %q, want %q", c.m, got, c.want)
		}
	}
}

// badModel is an out-of-package-style model validateModel has never heard
// of; the sealed-interface default case must reject it.
type badModel struct{ TransientFlip }

func (badModel) String() string { return "bad" }

// TestValidateModel: malformed model parameters are campaign-startup
// ConfigErrors, not mid-campaign surprises.
func TestValidateModel(t *testing.T) {
	for _, m := range []FaultModel{
		StuckAt{Polarity: 2, Duration: 10},
		StuckAt{Polarity: 1, Duration: 0},
		StuckAt{Polarity: 1, Duration: -5},
		MultiBit{Span: 0},
		MultiBit{Span: -1},
		badModel{},
	} {
		if err := validateModel(m); err == nil {
			t.Errorf("validateModel(%v) = nil, want error", m)
		}
	}
	for _, m := range []FaultModel{
		nil,
		TransientFlip{},
		StuckAt{Polarity: 1, Duration: 1},
		StuckAt{Polarity: 0, Permanent: true}, // Duration ignored under Permanent
		MultiBit{Span: 1},
	} {
		if err := validateModel(m); err != nil {
			t.Errorf("validateModel(%v) = %v, want nil", m, err)
		}
	}
}

// TestRestrictToModel: Validate narrows Prove to what each model keeps
// sound — the transparent default path stays untouched, every other model
// loses the prover. EarlyStop is never rewritten, and every model gets the
// same golden run: a windowed stuck-at's golden run records keyframes
// (the certificate applies once the fault disarms), while
// dead-trial resolution stays transient-only — a bit the transient model
// resolves from the liveness trace is stepped under the stuck-at models.
func TestRestrictToModel(t *testing.T) {
	base := stealTestConfig()

	cfg := base
	cfg.Model = nil
	cfg.EarlyStop = EarlyStopOn
	cfg.Prove = ProveOn
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.EarlyStop != EarlyStopOn || cfg.Prove != ProveOn {
		t.Errorf("transient config was restricted: EarlyStop=%v Prove=%v", cfg.EarlyStop, cfg.Prove)
	}

	en, _ := newTestEngine(t, workload.Tiny, 600)
	var kind ResolveKind
	en.cfg.OnTrialResolved = func(k ResolveKind, _ int) { kind = k }
	for _, model := range []FaultModel{StuckAt{Polarity: 1, Duration: 30}, StuckAt{Polarity: 1, Duration: 30, Random: true}} {
		cfg = base
		cfg.Model = model
		cfg.EarlyStop = EarlyStopOn
		cfg.Prove = ProveOn
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		if cfg.Prove != ProveOff {
			t.Errorf("%v config kept Prove=%v, want ProveOff", model, cfg.Prove)
		}
		if cfg.EarlyStop != EarlyStopOn {
			t.Errorf("%v config rewrote EarlyStop to %v", model, cfg.EarlyStop)
		}

		en.cfg.Prove, en.model = cfg.Prove, resolveModel(cfg.Model)
		g := sweepGolden(en)
		en.g = g
		start := en.m.Cycle
		if want := int((start+uint64(en.cfg.Horizon))/convStride - start/convStride); g.nKf != want {
			t.Errorf("%v golden run: %d keyframes, want %d", model, g.nKf, want)
		}

		// A bit the liveness trace proves dead resolves without stepping
		// under the transient model, and is stepped under the stuck-at.
		tested := false
		for _, e := range en.m.F.Elems() {
			if !e.Injectable() {
				continue
			}
			for i := 0; i < e.Entries() && !tested; i++ {
				if _, dead := g.trace.ProvenDead(e.EntryIndex(i), uint64(en.cfg.Horizon)); !dead {
					continue
				}
				en.model = TransientFlip{}
				runTargeted(t, en, g, e.Name(), i, 0)
				if kind != ResolveTaint {
					continue
				}
				tested = true
				en.model = resolveModel(cfg.Model)
				runTargeted(t, en, g, e.Name(), i, 0)
				if kind == ResolveTaint {
					t.Errorf("%v: %s[%d] resolved from the liveness trace; dead-trial resolution must stay transient-only", model, e.Name(), i)
				}
			}
		}
		if !tested {
			t.Errorf("%v: no dead-on-arrival entry found to test the taint gating", model)
		}
	}

	cfg = base
	cfg.Model = MultiBit{Span: 2}
	cfg.EarlyStop = EarlyStopOn
	cfg.Prove = ProveOn
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Prove != ProveOff {
		t.Errorf("MBU config kept Prove=%v, want ProveOff (per-bit proofs do not cover spans)", cfg.Prove)
	}
	if cfg.EarlyStop != EarlyStopOn {
		t.Errorf("MBU config rewrote EarlyStop to %v; one-shot models keep convergence", cfg.EarlyStop)
	}

	cfg = base
	cfg.Model = StuckAt{Polarity: 2, Duration: 10}
	var ce *ConfigError
	if err := cfg.Validate(); !errors.As(err, &ce) || ce.Field != "Model" {
		t.Errorf("bad polarity: err = %v, want ConfigError on Model", err)
	}
}

// faultTestFile builds a small frozen file with the width shapes the
// MultiBit clamping rules care about: a full word, an odd narrow width, and
// a 1-bit element long enough to span two backing words. A one-window
// sweep keeps the file hashed, so checkDigest has an incremental digest to
// check.
func faultTestFile() (f *state.File, wide, narrow, valid *state.Elem) {
	f = state.New()
	wide = f.RAM("wide", state.CatData, 3, 64)
	narrow = f.RAM("narrow", state.CatAddr, 4, 7)
	valid = f.Latch("valid", state.CatValid, 70, 1)
	f.Freeze()
	keepDigest(f)
	return f, wide, narrow, valid
}

// keepDigest attaches a sweep with one window open at cycle 0 and stamps
// cycle 1, as a golden sweep does: the file is hashed until StopTrace.
func keepDigest(f *state.File) {
	sw := f.NewSweep()
	f.StartTrace(sw)
	sw.OpenWindow(0)
	f.TraceCycle(1)
}

// checkDigest asserts the incrementally maintained digest still equals the
// from-scratch fold — the invariant every model write path must preserve.
// The file must have been hashed (a journal or an attached sweep) since
// the writes being checked: on a plain file Digest is the from-scratch
// fold, and the check would compare it with itself.
func checkDigest(t *testing.T, f *state.File, when string) {
	t.Helper()
	if f.Digest() != f.RecomputeDigest() {
		t.Fatalf("%s: incremental digest diverged from recomputed digest", when)
	}
}

// TestMultiBitSpanClamp: the span flips adjacent bits of one entry only —
// clamped at the entry width, never wrapping into a neighboring entry, and
// degenerating to a single flip on 1-bit elements.
func TestMultiBitSpanClamp(t *testing.T) {
	f, wide, narrow, valid := faultTestFile()

	// Interior anchor, span fits: bits 5 and 6 of a 7-bit entry.
	MultiBit{Span: 2}.Arm(state.BitRef{Elem: narrow, Entry: 1, Bit: 5}, nil)
	if got := narrow.Get(1); got != 0b1100000 {
		t.Errorf("narrow[1] = %#b, want bits 5 and 6 set", got)
	}
	if narrow.Get(0) != 0 || narrow.Get(2) != 0 {
		t.Error("span dirtied a neighboring entry of narrow")
	}
	checkDigest(t, f, "narrow interior span")
	narrow.Set(1, 0)

	// Anchor at the top bit of a 7-bit entry: clamped to one bit, the next
	// entry stays clean even though it is adjacent in the backing word.
	MultiBit{Span: 2}.Arm(state.BitRef{Elem: narrow, Entry: 1, Bit: 6}, nil)
	if got := narrow.Get(1); got != 0b1000000 {
		t.Errorf("narrow[1] = %#b, want only bit 6 set (clamped span)", got)
	}
	if narrow.Get(2) != 0 {
		t.Errorf("narrow[2] = %#b; clamped span wrapped into the next entry", narrow.Get(2))
	}
	checkDigest(t, f, "narrow clamped span")

	// 1-bit element: the span degenerates to a single flip, and entry 64
	// (first bit of the next backing word) is untouched even when the
	// anchor is the last entry of a word.
	MultiBit{Span: 2}.Arm(state.BitRef{Elem: valid, Entry: 63, Bit: 0}, nil)
	if !valid.Bool(63) {
		t.Error("valid[63] not flipped")
	}
	for i := 0; i < valid.Entries(); i++ {
		if i != 63 && valid.Bool(i) {
			t.Errorf("valid[%d] dirtied by a 1-bit-element MBU at entry 63", i)
		}
	}
	checkDigest(t, f, "valid 1-bit span")

	// Top of a 64-bit entry: clamped to one bit, next entry clean.
	MultiBit{Span: 2}.Arm(state.BitRef{Elem: wide, Entry: 0, Bit: 63}, nil)
	if got := wide.Get(0); got != 1<<63 {
		t.Errorf("wide[0] = %#x, want only bit 63 set", got)
	}
	if wide.Get(1) != 0 {
		t.Error("span wrapped into wide[1]")
	}
	checkDigest(t, f, "wide top-bit span")

	// A span covering the whole 64-bit entry exercises the full-word mask
	// path (1<<64 would overflow); an oversized span clamps the same way.
	MultiBit{Span: 64}.Arm(state.BitRef{Elem: wide, Entry: 1, Bit: 0}, nil)
	if got := wide.Get(1); got != ^uint64(0) {
		t.Errorf("wide[1] = %#x, want all 64 bits flipped", got)
	}
	MultiBit{Span: 100}.Arm(state.BitRef{Elem: wide, Entry: 2, Bit: 10}, nil)
	if want := ^uint64(0) &^ (1<<10 - 1); wide.Get(2) != want {
		t.Errorf("wide[2] = %#x, want %#x (span clamped to bits 10..63)", wide.Get(2), want)
	}
	checkDigest(t, f, "wide full-entry span")

	// XOR is an involution: re-arming the identical upset restores the
	// entry, and the digest follows.
	MultiBit{Span: 64}.Arm(state.BitRef{Elem: wide, Entry: 1, Bit: 0}, nil)
	if wide.Get(1) != 0 {
		t.Errorf("double MBU left wide[1] = %#x, want 0", wide.Get(1))
	}
	checkDigest(t, f, "involution")
}

// TestStuckAtReassert: Arm forces the polarity, Reassert survives
// behavioral overwrites through the trial window and expires after it, and
// every imposition goes through the scalar Set path — the digest folds
// exactly like a behavioral write, and a no-op reassert changes neither the
// digest nor an open journal.
func TestStuckAtReassert(t *testing.T) {
	f := state.New()
	d := f.RAM("d", state.CatData, 4, 16)
	f.Freeze()
	keepDigest(f)
	bit := state.BitRef{Elem: d, Entry: 2, Bit: 3}

	armed := StuckAt{Polarity: 1, Duration: 5}.Arm(bit, nil)
	if !d.GetBit(2, 3) {
		t.Fatal("Arm did not force the bit to 1")
	}
	checkDigest(t, f, "after Arm")

	// Reasserting an already-correct bit is a no-op write: same digest,
	// nothing logged to an open journal.
	f.BeginJournal()
	d0, j0 := f.Digest(), f.JournalLen()
	if !armed.Reassert(f, 1) {
		t.Fatal("Reassert(1) = false inside the window")
	}
	if f.Digest() != d0 || f.JournalLen() != j0 {
		t.Errorf("no-op reassert changed state: digest %#x -> %#x, journal %d -> %d",
			d0, f.Digest(), j0, f.JournalLen())
	}
	f.CommitJournal()

	// A behavioral overwrite clears the bit; the next reassert re-imposes
	// it and only it.
	d.Set(2, 0xFFF0&^(1<<3))
	if d.GetBit(2, 3) {
		t.Fatal("test setup: overwrite did not clear the bit")
	}
	d0 = f.Digest()
	if !armed.Reassert(f, 2) {
		t.Fatal("Reassert(2) = false inside the window")
	}
	if got := d.Get(2); got != 0xFFF0|1<<3 {
		t.Errorf("reassert wrote %#x, want only bit 3 re-imposed over %#x", got, 0xFFF0&^(1<<3))
	}
	if f.Digest() == d0 {
		t.Error("value-changing reassert left the digest unchanged")
	}
	checkDigest(t, f, "after reassert over overwrite")

	// The window is inclusive of Duration and expired after it: once the
	// fault lapses, overwrites stand.
	if !armed.Reassert(f, 5) {
		t.Error("Reassert(5) = false, want true (window is [1, Duration])")
	}
	d.Set(2, 0)
	if armed.Reassert(f, 6) {
		t.Error("Reassert(6) = true past the window")
	}
	if d.Get(2) != 0 {
		t.Errorf("expired fault still imposed: d[2] = %#x", d.Get(2))
	}

	// Disarm retires the fault unconditionally.
	armed2 := StuckAt{Polarity: 0, Permanent: true}.Arm(state.BitRef{Elem: d, Entry: 0, Bit: 0}, nil)
	d.Set(0, 1)
	if !armed2.Reassert(f, 1_000_000) {
		t.Error("permanent fault expired")
	}
	if d.GetBit(0, 0) {
		t.Error("stuck-at-0 did not clear the bit")
	}
	armed2.Disarm()
	if armed2.Reassert(f, 1) {
		t.Error("Reassert after Disarm = true")
	}
	checkDigest(t, f, "end")
}

// TestStuckAtUndoJournal: impositions log first-touch pre-images like any
// other write, so a rewind across an armed window restores the exact
// pre-mark contents and digest.
func TestStuckAtUndoJournal(t *testing.T) {
	f := state.New()
	d := f.RAM("d", state.CatData, 4, 16)
	f.Freeze()
	keepDigest(f)
	d.Set(0, 0xABCD)
	f.BeginJournal()
	mark := f.Mark()

	armed := StuckAt{Polarity: 1, Duration: 100}.Arm(state.BitRef{Elem: d, Entry: 0, Bit: 4}, nil)
	for c := uint64(1); c <= 3; c++ {
		d.Set(0, 0x1234) // behavioral overwrite each cycle...
		armed.Reassert(f, c)
	}
	if got := d.Get(0); got != 0x1234|1<<4 {
		t.Fatalf("d[0] = %#x mid-trial, want overwrite plus stuck bit", got)
	}
	checkDigest(t, f, "mid-trial")

	f.RollbackTo(mark)
	if got := d.Get(0); got != 0xABCD {
		t.Errorf("rollback restored d[0] = %#x, want 0xABCD", got)
	}
	checkDigest(t, f, "after rollback")
	f.CommitJournal()
}

// TestStuckAtTouchTrace: an imposition under an attached sweep stamps a
// set touch like a scalar Set (no panic, no digest skew) — the golden
// run's trace must never be able to distinguish a reassert from a
// behavioral write.
func TestStuckAtTouchTrace(t *testing.T) {
	f := state.New()
	d := f.RAM("d", state.CatData, 4, 16)
	f.Freeze()
	sw := f.NewSweep()
	f.StartTrace(sw)
	sw.OpenWindow(0)
	f.TraceCycle(1)

	armed := StuckAt{Polarity: 1, Duration: 10}.Arm(state.BitRef{Elem: d, Entry: 1, Bit: 0}, nil)
	f.TraceCycle(2)
	d.Set(1, 0)
	armed.Reassert(f, 2)
	tr := &state.WindowTrace{}
	sw.CloseWindow(tr)
	checkDigest(t, f, "after traced imposition")
	f.StopTrace()

	if !d.GetBit(1, 0) {
		t.Error("traced reassert did not impose the bit")
	}
	// Arm imposes at cycle 1 and the reassert writes last, at cycle 2.
	if k := d.EntryIndex(1); tr.FirstSet(k) != 1 || tr.LastSet(k) != 2 {
		t.Errorf("FirstSet/LastSet = %d/%d, want 1/2", tr.FirstSet(k), tr.LastSet(k))
	}
}

// TestStuckAtBitLaneWriters: lane writes (the hot-path writers for 1-bit
// elements) and reasserts interleave coherently — a ClearMask kills the
// stuck value like any overwrite, the next reassert re-imposes it through
// the scalar path, and the lane's word view and the digest agree.
func TestStuckAtBitLaneWriters(t *testing.T) {
	f := state.New()
	v := f.Latch("valid", state.CatValid, 70, 1)
	f.Freeze()
	keepDigest(f)
	lane := v.Lane()

	armed := StuckAt{Polarity: 1, Duration: 50}.Arm(state.BitRef{Elem: v, Entry: 5, Bit: 0}, nil)
	if lane.Word(0)>>5&1 != 1 {
		t.Fatal("Arm not visible through the lane word view")
	}
	checkDigest(t, f, "after Arm")

	lane.ClearMask(0, 0xFFFF) // behavioral word-parallel overwrite clears entries 0..15
	if v.Bool(5) {
		t.Fatal("test setup: ClearMask did not clear the stuck entry")
	}
	d0 := f.Digest()
	if !armed.Reassert(f, 1) {
		t.Fatal("Reassert(1) = false inside the window")
	}
	if !v.Bool(5) || lane.Word(0) != 1<<5 {
		t.Errorf("reassert after ClearMask: word 0 = %#x, want only entry 5 set", lane.Word(0))
	}
	if f.Digest() == d0 {
		t.Error("reassert after ClearMask left the digest unchanged")
	}
	checkDigest(t, f, "after reassert over ClearMask")

	// SetMask over the armed entry is a no-op for the fault (the bit
	// already holds the stuck value); the next reassert changes nothing.
	lane.SetMask(1, 0b11) // entries 64, 65 — a different backing word
	f.BeginJournal()
	d0, j0 := f.Digest(), f.JournalLen()
	if !armed.Reassert(f, 2) {
		t.Fatal("Reassert(2) = false inside the window")
	}
	if f.Digest() != d0 || f.JournalLen() != j0 {
		t.Error("no-op reassert after SetMask changed state")
	}
	f.CommitJournal()
	if lane.Word(1) != 0b11 {
		t.Errorf("reassert corrupted an unrelated lane word: %#x", lane.Word(1))
	}
	checkDigest(t, f, "end")
}

// TestTransientFlipExportCompat: an explicit TransientFlip model is
// byte-identical to the default nil model at any worker count — the
// interface seam adds nothing to the classic campaign. Subtests are named
// for the engine (work-stealing) and rewind (undo journal) they run.
func TestTransientFlipExportCompat(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("steal-w%d-journal", workers), func(t *testing.T) {
			cfg := stealTestConfig()
			cfg.Workers = workers
			base, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Model = TransientFlip{}
			explicit, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			baseJSON, baseCSV := exportBytes(t, base)
			gotJSON, gotCSV := exportBytes(t, explicit)
			if !bytes.Equal(gotJSON, baseJSON) {
				t.Errorf("explicit TransientFlip JSON differs from default model:\n--- default ---\n%s\n--- explicit ---\n%s", baseJSON, gotJSON)
			}
			if !bytes.Equal(gotCSV, baseCSV) {
				t.Error("explicit TransientFlip CSV differs from default model")
			}
			if base.Model != "transient" || explicit.Model != "transient" {
				t.Errorf("Result.Model = %q / %q, want \"transient\"", base.Model, explicit.Model)
			}
		})
	}
}

// nonTransientModels is the campaign matrix the gated-model tests share.
func nonTransientModels() []FaultModel {
	return []FaultModel{
		StuckAt{Polarity: 0, Duration: 40},
		StuckAt{Polarity: 1, Duration: 40},
		StuckAt{Polarity: 1, Duration: 40, Random: true},
		StuckAt{Polarity: 1, Permanent: true},
		MultiBit{Span: 2},
	}
}

// TestModelSchedulerEquivalence: for every gated model, Workers 1, 4 and 8
// produce the identical Result — including the intermittent model, whose
// per-trial random durations must come from the dedicated (Seed,
// checkpoint, index) stream and not from scheduling order.
// CrossCheck is on, so each run also passes the full-horizon soundness
// oracle on a sample of bits at every checkpoint.
func TestModelSchedulerEquivalence(t *testing.T) {
	for _, model := range nonTransientModels() {
		t.Run(model.String(), func(t *testing.T) {
			cfg := stealTestConfig()
			cfg.Model = model
			cfg.CrossCheck = 2
			cfg.Workers = 1
			serial, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Model != model.String() {
				t.Errorf("Result.Model = %q, want %q", serial.Model, model.String())
			}
			for _, workers := range []int{4, 8} {
				cfg.Workers = workers
				parallel, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				resultsEqual(t, fmt.Sprintf("%s-w%d", model, workers), serial, parallel)
			}
		})
	}
}

// TestModelEarlyStopEquivalence: the model-gated acceleration
// (taint/convergence where the model is one-shot) must not change a
// single classification — every gated model's
// accelerated run is byte-identical to its EarlyStopOff full-horizon run.
// This is the in-suite version of the -crosscheck oracle's must-simulate
// half, applied to every trial instead of a sample.
func TestModelEarlyStopEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon reference campaigns are slow")
	}
	for _, model := range nonTransientModels() {
		t.Run(model.String(), func(t *testing.T) {
			cfg := stealTestConfig()
			cfg.Model = model
			cfg.EarlyStop = EarlyStopOn // gated per model by the engine
			fast, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.EarlyStop = EarlyStopOff
			slow, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fastJSON, fastCSV := exportBytes(t, fast)
			slowJSON, slowCSV := exportBytes(t, slow)
			if !bytes.Equal(fastJSON, slowJSON) {
				t.Errorf("accelerated run differs from full-horizon run:\n--- accelerated ---\n%s\n--- full horizon ---\n%s", fastJSON, slowJSON)
			}
			if !bytes.Equal(fastCSV, slowCSV) {
				t.Error("accelerated CSV differs from full-horizon CSV")
			}
		})
	}
}

// TestModelExport: non-default models stamp the export with their name;
// the default model's export carries no fault_model key at all, keeping
// old-format consumers working byte-for-byte.
func TestModelExport(t *testing.T) {
	cfg := stealTestConfig()
	cfg.Model = StuckAt{Polarity: 1, Duration: 40}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, _ := exportBytes(t, res)
	if !strings.Contains(string(j), `"fault_model": "stuck1:40"`) {
		t.Errorf("stuck1 export lacks the fault_model field:\n%s", j)
	}

	cfg.Model = nil
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j, _ = exportBytes(t, res)
	if strings.Contains(string(j), "fault_model") {
		t.Errorf("default-model export leaks a fault_model field:\n%s", j)
	}
}

// TestMergeModel: merging results keeps a unanimous model name and flags a
// mixed-model aggregate rather than mislabeling it.
func TestMergeModel(t *testing.T) {
	a := &Result{Benchmark: "a", Model: "stuck1:40"}
	b := &Result{Benchmark: "b", Model: "stuck1:40"}
	if got := Merge("avg", []*Result{a, b}).Model; got != "stuck1:40" {
		t.Errorf("unanimous merge Model = %q, want \"stuck1:40\"", got)
	}
	c := &Result{Benchmark: "c", Model: "transient"}
	if got := Merge("avg", []*Result{a, c}).Model; got != "mixed" {
		t.Errorf("mixed merge Model = %q, want \"mixed\"", got)
	}
}

// TestResumeModelMismatch: a journal written under stuck1 must refuse to
// feed a transient campaign — the fault model is part of the journal
// identity, and a silent replay would mislabel every replayed trial.
func TestResumeModelMismatch(t *testing.T) {
	cfg := stealTestConfig()
	cfg.Model = StuckAt{Polarity: 1, Duration: 40}
	cfg.JournalPath = filepath.Join(t.TempDir(), "campaign.jsonl")
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Model = nil
	if _, err := Resume(context.Background(), cfg); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("resume stuck1 journal as transient: err = %v, want ErrJournalMismatch", err)
	}
	// Another gated model is just as wrong as the default one.
	cfg.Model = StuckAt{Polarity: 0, Duration: 40}
	if _, err := Resume(context.Background(), cfg); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("resume stuck1 journal as stuck0: err = %v, want ErrJournalMismatch", err)
	}
}

// TestResumeModelRoundTrip: under the matching model a complete stuck1
// journal replays to the byte-identical result — the identity extension
// must not break the happy path it guards.
func TestResumeModelRoundTrip(t *testing.T) {
	cfg := stealTestConfig()
	cfg.Model = StuckAt{Polarity: 1, Duration: 40}
	cfg.JournalPath = filepath.Join(t.TempDir(), "campaign.jsonl")
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, baseCSV := exportBytes(t, base)
	gotJSON, gotCSV := exportBytes(t, resumed)
	if !bytes.Equal(gotJSON, baseJSON) || !bytes.Equal(gotCSV, baseCSV) {
		t.Error("replayed stuck1 exports differ from the original run")
	}
}

// TestCrossCheckErrorMessage: the oracle's failure report carries every
// coordinate needed to reproduce the failing sample, in both its forms: a
// must-simulate sample the campaign misclassified, and a proven-benign bit
// that did not simulate to µArch Match.
func TestCrossCheckErrorMessage(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  *CrossCheckError
		want []string
	}{
		{"must-simulate", &CrossCheckError{
			Checkpoint: 3, Index: -2, Model: "stuck1:40",
			Elem: "rob", Entry: 5, Bit: 9,
			Outcome: OutMatch, Cycles: 120,
			RefOutcome: OutSDC, RefMode: FailCtrl, RefCycles: 480,
		}, []string{"checkpoint 3", "trial -2", "stuck1:40", "rob[5].9", "in 120 cycles", "reference says SDC/ctrl in 480 cycles"}},
		{"proven", &CrossCheckError{
			Checkpoint: 1, Index: -1, Model: "transient",
			Elem: "rob.head", Entry: 0, Bit: 2, Rule: "mask",
			Outcome:    OutMatch,
			RefOutcome: OutTerminated, RefMode: FailLocked, RefCycles: 200,
		}, []string{"checkpoint 1", "trial -1", "transient", "rob.head[0].2", "rule mask", "Terminated/locked in 200 cycles"}},
	} {
		msg := tc.err.Error()
		for _, want := range tc.want {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: CrossCheckError message %q lacks %q", tc.name, msg, want)
			}
		}
	}
}

// TestConvergeAfterDisarm: windowed stuck-at faults keep the convergence
// certificate once they disarm. Intermittent and windowed stuck-0/stuck-1
// campaigns must be identical with EarlyStop on and off, at least one
// trial must resolve through the certificate after its fault disarmed, a
// fixed window must keep the certificate off at the keyframe boundary it
// spans, and a permanent stuck-at, which never disarms, must never reach
// the certificate.
func TestConvergeAfterDisarm(t *testing.T) {
	const window = 600 // spans the first keyframe boundary
	var attempts, held, early atomic.Int64
	var fixed atomic.Bool // the running model asserts for exactly window cycles
	testConvergeHook = func(cyc, _ int, why convBail) {
		attempts.Add(1)
		if why == convHeld {
			held.Add(1)
		}
		if fixed.Load() && cyc <= window {
			early.Add(1)
		}
	}
	defer func() { testConvergeHook = nil }()

	campaign := func(model FaultModel, mode EarlyStopMode) *Result {
		t.Helper()
		cfg := stealTestConfig()
		cfg.Horizon = 2000
		cfg.Populations = []Population{{Name: "l+r", Trials: 12}}
		cfg.Model = model
		cfg.EarlyStop = mode
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, model := range []StuckAt{
		{Polarity: 0, Duration: window},
		{Polarity: 1, Duration: window},
		{Polarity: 1, Duration: window, Random: true},
	} {
		fixed.Store(!model.Random)
		before := held.Load()
		fast := campaign(model, EarlyStopOn)
		t.Logf("%v: %d trials resolved by the certificate", model, held.Load()-before)
		slow := campaign(model, EarlyStopOff)
		resultsEqual(t, model.String(), fast, slow)
	}
	if held.Load() == 0 {
		t.Error("no trial resolved through the certificate after its fault disarmed")
	}
	if n := early.Load(); n != 0 {
		t.Errorf("%d certificate attempts inside a fixed fault window", n)
	}

	fixed.Store(false)
	attempts.Store(0)
	campaign(StuckAt{Polarity: 1, Permanent: true}, EarlyStopOn)
	if n := attempts.Load(); n != 0 {
		t.Errorf("permanent stuck-at entered the certificate %d times; it never disarms", n)
	}
}
