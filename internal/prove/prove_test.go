package prove

import (
	"math/rand"
	"testing"

	"pipefault/internal/state"
)

// testFile builds a small registry with one element per rule scenario: a
// valid-gated queue payload, a wide element with unconsumed bits, and a
// plain latch, plus a non-injectable element the prover must skip.
func testFile() (*state.File, map[string]*state.Elem) {
	f := state.New()
	elems := map[string]*state.Elem{
		"pc":      f.Latch("pc", state.CatPC, 1, 62),
		"q.data":  f.RAM("q.data", state.CatData, 4, 16),
		"q.valid": f.RAM("q.valid", state.CatValid, 4, 1),
		"wide":    f.Latch("wide", state.CatCtrl, 2, 12),
		"icache":  f.RAM("icache", state.CatInsn, 8, 32, state.NotInjectable()),
	}
	f.Freeze()
	return f, elems
}

// record runs fn under an active trace bracketed by checkpoint-state
// save/restore, exactly as the engine computes proofs: the golden run's
// touches are traced, then the file is rewound so Compute reads gate
// values as of the checkpoint.
func record(f *state.File, fn func(cycle func(uint64))) *state.TouchTrace {
	snap := f.Snapshot()
	tr := f.NewTouchTrace()
	f.StartTrace(tr)
	fn(f.TraceCycle)
	f.StopTrace()
	f.Restore(snap)
	return tr
}

func TestRuleString(t *testing.T) {
	cases := []struct {
		r    Rule
		want string
	}{
		{RuleNone, "none"},
		{RuleLiveness, "liveness"},
		{RuleIdle, "idle"},
		{RuleMask, "mask"},
		{RuleLiveness | RuleMask, "liveness+mask"},
		{RuleConstProp, "constprop"},
		{RuleAll, "liveness+idle+mask+constprop"},
		{Rule(1 << 5), "rule(32)"},
		{RuleLiveness | Rule(1<<5), "liveness+rule(32)"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Rule(%#x).String() = %q, want %q", uint8(c.r), got, c.want)
		}
	}
}

func TestMatchWins(t *testing.T) {
	cases := []struct {
		failAt  uint64
		matchAt uint64
		h       uint64
		want    bool
	}{
		{0, 5, 10, true},
		{0, 0, 10, false},  // never overwritten
		{0, 11, 10, false}, // overwritten past the horizon
		{3, 5, 10, false},
		{5, 5, 10, false}, // tie: monitor considered first
		{6, 5, 10, true},
		{12, 5, 10, true}, // monitor past the horizon
		{4, 5, 10, false},
		{9, 5, 10, true},
	}
	for i, c := range cases {
		if got := matchWins(c.matchAt, c.failAt, c.h); got != c.want {
			t.Errorf("case %d: matchWins(%d, %d, %d) = %v, want %v",
				i, c.matchAt, c.failAt, c.h, got, c.want)
		}
	}
}

// TestLivenessRule: entries the golden run overwrites before reading are
// proven benign; read-first entries and entries beaten by a golden monitor
// are not.
func TestLivenessRule(t *testing.T) {
	f, elems := testFile()
	q := elems["q.data"]
	tr := record(f, func(cycle func(uint64)) {
		cycle(2)
		q.Get(1) // entry 1: read before its write
		cycle(3)
		q.Set(0, 7) // entry 0: overwritten, never read
		q.Set(1, 7)
		// entries 2, 3: untouched (never read -> dead, but never
		// overwritten -> no Match proof)
	})
	p := Compute(f, tr, 0, 100, Hints{}, RuleAll)

	if r, ok := p.Proven(state.BitRef{Elem: q, Entry: 0, Bit: 5}); !ok || r != RuleLiveness {
		t.Errorf("overwritten-never-read entry: Proven = (%v, %v), want (liveness, true)", r, ok)
	}
	for _, entry := range []int{1, 2, 3} {
		if _, ok := p.Proven(state.BitRef{Elem: q, Entry: entry, Bit: 0}); ok {
			t.Errorf("entry %d proven; read-first or never-overwritten entries must simulate", entry)
		}
	}

	// A golden monitor firing at or before the overwrite kills the proof:
	// the trial loop would classify the monitor event, not Match.
	p = Compute(f, tr, 3, 100, Hints{}, RuleAll)
	if _, ok := p.Proven(state.BitRef{Elem: q, Entry: 0, Bit: 0}); ok {
		t.Error("proof survived a golden exception at the overwrite cycle")
	}
	p = Compute(f, tr, 4, 100, Hints{}, RuleAll)
	if _, ok := p.Proven(state.BitRef{Elem: q, Entry: 0, Bit: 0}); !ok {
		t.Error("proof rejected although the overwrite beats the golden exception")
	}
}

// TestIdleRule: a gated-off entry whose pre-overwrite reads happen while
// the gate provably stays down is benign even though liveness fails.
func TestIdleRule(t *testing.T) {
	f, elems := testFile()
	q, v := elems["q.data"], elems["q.valid"]
	v.Set(3, 1) // entry 3's gate is up at the checkpoint
	tr := record(f, func(cycle func(uint64)) {
		cycle(2)
		q.Get(0)
		q.Get(1)
		q.Get(3)
		cycle(4)
		v.Set(1, 1)
		cycle(5)
		q.Set(0, 9)
		q.Set(1, 9)
		q.Set(3, 9)
		cycle(7)
		v.Set(0, 1) // gate 0 rises only after the overwrite
	})
	hints := Hints{Gates: map[string]Gate{"q.data": {Valid: "q.valid"}}}
	p := Compute(f, tr, 0, 100, hints, RuleAll)

	if r, ok := p.Proven(state.BitRef{Elem: q, Entry: 0, Bit: 0}); !ok || r != RuleIdle {
		t.Errorf("gated-off entry: Proven = (%v, %v), want (idle, true)", r, ok)
	}
	if _, ok := p.Proven(state.BitRef{Elem: q, Entry: 1, Bit: 0}); ok {
		t.Error("entry proven idle although its gate rises before the overwrite")
	}
	if _, ok := p.Proven(state.BitRef{Elem: q, Entry: 3, Bit: 0}); ok {
		t.Error("entry proven idle although its gate is up at the checkpoint")
	}

	// Disabling the idle rule removes the proof.
	p = Compute(f, tr, 0, 100, hints, RuleLiveness|RuleMask)
	if _, ok := p.Proven(state.BitRef{Elem: q, Entry: 0, Bit: 0}); ok {
		t.Error("idle proof emitted with RuleIdle disabled")
	}
}

// TestMaskRule: bits outside the declared consumed mask are benign once the
// entry re-converges, even when reads precede the overwrite.
func TestMaskRule(t *testing.T) {
	f, elems := testFile()
	w := elems["wide"]
	tr := record(f, func(cycle func(uint64)) {
		cycle(2)
		w.Get(0) // read-first: liveness fails
		cycle(5)
		w.Set(0, 3)
		// entry 1 is never overwritten: no re-convergence, no proof
		w.Get(1)
	})
	hints := Hints{Masks: map[string]uint64{"wide": 0x00F}} // bits 0..3 consumed
	p := Compute(f, tr, 0, 100, hints, RuleAll)

	for bit := 0; bit < 12; bit++ {
		r, ok := p.Proven(state.BitRef{Elem: w, Entry: 0, Bit: bit})
		if bit < 4 && ok {
			t.Errorf("consumed bit %d proven", bit)
		}
		if bit >= 4 && (!ok || r != RuleMask) {
			t.Errorf("unconsumed bit %d: Proven = (%v, %v), want (mask, true)", bit, r, ok)
		}
	}
	if _, ok := p.Proven(state.BitRef{Elem: w, Entry: 1, Bit: 11}); ok {
		t.Error("mask proof emitted for a never-overwritten entry")
	}

	// A mask covering every declared bit disables the rule (nothing to prove).
	p = Compute(f, tr, 0, 100, Hints{Masks: map[string]uint64{"wide": 0xFFF}}, RuleAll)
	if _, ok := p.Proven(state.BitRef{Elem: w, Entry: 0, Bit: 11}); ok {
		t.Error("full consumed mask still proved bits")
	}
}

// TestConstPropRule: an entry read before its overwrite is still provable
// for the bits no pre-overwrite read observed (value-aware GetObs masks);
// plain reads observe everything and leave nothing to prove.
func TestConstPropRule(t *testing.T) {
	f, elems := testFile()
	q := elems["q.data"]
	tr := record(f, func(cycle func(uint64)) {
		cycle(2)
		q.GetObs(0, func(uint64) uint64 { return 0x00F0 }) // observes bits 4..7
		q.GetObs(0, func(uint64) uint64 { return 0x0003 }) // accumulates bits 0..1
		q.Get(1)                                           // plain read: observes all
		q.GetObs(2, func(uint64) uint64 { return 0x0001 })
		cycle(5)
		q.Set(0, 9)
		q.Set(1, 9)
		// entry 2 is never overwritten: no re-convergence, no proof
	})
	p := Compute(f, tr, 0, 100, Hints{}, RuleAll)

	for bit := 0; bit < 16; bit++ {
		r, ok := p.Proven(state.BitRef{Elem: q, Entry: 0, Bit: bit})
		observed := bit < 2 || (bit >= 4 && bit < 8)
		if observed && ok {
			t.Errorf("observed bit %d proven", bit)
		}
		if !observed && (!ok || r != RuleConstProp) {
			t.Errorf("unobserved bit %d: Proven = (%v, %v), want (constprop, true)", bit, r, ok)
		}
	}
	if _, ok := p.Proven(state.BitRef{Elem: q, Entry: 1, Bit: 3}); ok {
		t.Error("constprop proof emitted for a fully observed entry")
	}
	if _, ok := p.Proven(state.BitRef{Elem: q, Entry: 2, Bit: 3}); ok {
		t.Error("constprop proof emitted for a never-overwritten entry")
	}

	// A golden monitor tying the overwrite kills the proof, exactly as for
	// liveness.
	p = Compute(f, tr, 5, 100, Hints{}, RuleAll)
	if _, ok := p.Proven(state.BitRef{Elem: q, Entry: 0, Bit: 15}); ok {
		t.Error("constprop proof survived a tying golden monitor")
	}

	// Disabling the rule removes the proof.
	p = Compute(f, tr, 0, 100, Hints{}, RuleLiveness|RuleIdle|RuleMask)
	if _, ok := p.Proven(state.BitRef{Elem: q, Entry: 0, Bit: 15}); ok {
		t.Error("constprop proof emitted with RuleConstProp disabled")
	}
}

// TestConstPropMaskCompose: the two bit-granular rules union their proven
// sets on one entry, each bit attributed to the rule that proved it in the
// coverage report.
func TestConstPropMaskCompose(t *testing.T) {
	f, elems := testFile()
	w := elems["wide"]
	tr := record(f, func(cycle func(uint64)) {
		cycle(2)
		w.GetObs(0, func(uint64) uint64 { return 0x021 }) // observes bits 0 and 5
		cycle(4)
		w.Set(0, 1)
	})
	hints := Hints{Masks: map[string]uint64{"wide": 0x00F}} // bits 0..3 consumed
	p := Compute(f, tr, 0, 100, hints, RuleAll)

	// Bit 0: observed and consumed — must simulate.
	if _, ok := p.Proven(state.BitRef{Elem: w, Entry: 0, Bit: 0}); ok {
		t.Error("observed consumed bit proven")
	}
	// Bit 1: unobserved — constprop.
	if r, ok := p.Proven(state.BitRef{Elem: w, Entry: 0, Bit: 1}); !ok || r&RuleConstProp == 0 {
		t.Errorf("unobserved bit 1: Proven = (%v, %v), want constprop", r, ok)
	}
	// Bit 5: observed but unconsumed — only the mask rule proves it.
	if r, ok := p.Proven(state.BitRef{Elem: w, Entry: 0, Bit: 5}); !ok || r&RuleMask == 0 {
		t.Errorf("observed unconsumed bit 5: Proven = (%v, %v), want mask", r, ok)
	}
	// Coverage attributes 10 bits (0xFDE) to constprop and the 1 leftover
	// (bit 5) to mask.
	want := []CatRule{
		{Category: state.CatCtrl, Rule: RuleMask, Proven: 1},
		{Category: state.CatCtrl, Rule: RuleConstProp, Proven: 10},
	}
	cov := p.Coverage()
	if len(cov) != len(want) {
		t.Fatalf("Coverage() = %+v, want %+v", cov, want)
	}
	for i := range want {
		if cov[i] != want[i] {
			t.Errorf("Coverage()[%d] = %+v, want %+v", i, cov[i], want[i])
		}
	}
}

// TestRuleNone: with every rule disabled the proof is empty and the draw
// population is the full one.
func TestRuleNone(t *testing.T) {
	f, elems := testFile()
	q := elems["q.data"]
	tr := record(f, func(cycle func(uint64)) {
		cycle(3)
		q.Set(0, 7)
	})
	p := Compute(f, tr, 0, 100, Hints{}, RuleNone)
	if got := p.ProvenBits(false); got != 0 {
		t.Fatalf("RuleNone proved %d bits", got)
	}
	if p.TotalBits(false) == 0 {
		t.Fatal("total population empty")
	}
}

// TestGatePanics: a declared gate that does not exist or whose entry count
// differs from the payload's is a model bug, not a provable condition.
func TestGatePanics(t *testing.T) {
	f, elems := testFile()
	q := elems["q.data"]
	tr := record(f, func(cycle func(uint64)) {
		cycle(3)
		q.Set(0, 7)
	})
	for name, hints := range map[string]Hints{
		"missing":  {Gates: map[string]Gate{"q.data": {Valid: "nope"}}},
		"mismatch": {Gates: map[string]Gate{"q.data": {Valid: "pc"}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s gate declaration did not panic", name)
				}
			}()
			Compute(f, tr, 0, 100, hints, RuleAll)
		}()
	}
}

// provedFile builds a file/trace pair with a known mixed partition and
// returns the computed proof: q.data entries 0-1 proven (liveness), the
// rest of the population must-simulate.
func provedFile(t *testing.T) (*state.File, *Proof, map[string]*state.Elem) {
	t.Helper()
	f, elems := testFile()
	q := elems["q.data"]
	tr := record(f, func(cycle func(uint64)) {
		cycle(3)
		q.Set(0, 7)
		q.Set(1, 8)
	})
	p := Compute(f, tr, 0, 100, Hints{}, RuleAll)
	if got := p.ProvenBits(false); got != 32 {
		t.Fatalf("fixture proved %d bits, want 32 (two 16-bit entries)", got)
	}
	return f, p, elems
}

// TestRandomBitMustSimulateOnly: the restricted draw covers every
// must-simulate bit and never lands on a proven one.
func TestRandomBitMustSimulateOnly(t *testing.T) {
	f, p, _ := provedFile(t)
	rng := rand.New(rand.NewSource(9))
	seen := make(map[state.BitRef]bool)
	for i := 0; i < 20000; i++ {
		b := p.RandomBit(rng, false)
		if _, ok := p.Proven(b); ok {
			t.Fatalf("draw landed on proven bit %s[%d].%d", b.Elem.Name(), b.Entry, b.Bit)
		}
		seen[b] = true
	}
	var mustSim int
	for _, e := range f.Elems() {
		if !e.Injectable() {
			continue
		}
		for entry := 0; entry < e.Entries(); entry++ {
			for bit := 0; bit < e.Width(); bit++ {
				if _, ok := p.Proven(state.BitRef{Elem: e, Entry: entry, Bit: bit}); !ok {
					mustSim++
				}
			}
		}
	}
	if len(seen) != mustSim {
		t.Errorf("draws covered %d distinct bits, population has %d", len(seen), mustSim)
	}
	if uint64(mustSim) != p.TotalBits(false)-p.ProvenBits(false) {
		t.Errorf("accounting mismatch: scan=%d, Total-Proven=%d", mustSim, p.TotalBits(false)-p.ProvenBits(false))
	}
}

// TestRandomBitPrefixReplay: the draw stream is a pure function of the rng
// stream, so replaying a prefix fast-forwards to identical draws — a
// checkpoint's trials depend only on its RNG seed, never on which worker
// draws them.
func TestRandomBitPrefixReplay(t *testing.T) {
	_, p, _ := provedFile(t)
	rng := rand.New(rand.NewSource(5))
	var seq []state.BitRef
	for i := 0; i < 40; i++ {
		seq = append(seq, p.RandomBit(rng, i%3 == 0))
	}
	replay := rand.New(rand.NewSource(5))
	for i := 0; i < 25; i++ {
		p.RandomBit(replay, i%3 == 0)
	}
	for i := 25; i < 40; i++ {
		if got := p.RandomBit(replay, i%3 == 0); got != seq[i] {
			t.Fatalf("replayed draw %d = %+v, want %+v", i, got, seq[i])
		}
	}
}

// TestRandomBitLatchOnly: the latch-restricted draw never returns RAM bits.
func TestRandomBitLatchOnly(t *testing.T) {
	_, p, _ := provedFile(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		if b := p.RandomBit(rng, true); b.Elem.Kind() != state.KindLatch {
			t.Fatalf("latch-only draw returned %s (kind %v)", b.Elem.Name(), b.Elem.Kind())
		}
	}
}

// TestFullDrawFallback: a population with no must-simulate bits falls back
// to the full-population draw, which must reproduce state.File.RandomBit's
// layout exactly (same rng stream, same BitRefs).
func TestFullDrawFallback(t *testing.T) {
	f := state.New()
	a := f.Latch("a", state.CatCtrl, 3, 9)
	b := f.RAM("b", state.CatData, 2, 64)
	f.Freeze()
	tr := record(f, func(cycle func(uint64)) {
		cycle(2)
		for i := 0; i < a.Entries(); i++ {
			a.Set(i, 1)
		}
		for i := 0; i < b.Entries(); i++ {
			b.Set(i, 1)
		}
	})
	p := Compute(f, tr, 0, 100, Hints{}, RuleAll)
	if p.ProvenBits(false) != p.TotalBits(false) {
		t.Fatalf("fixture not fully proven: %d/%d", p.ProvenBits(false), p.TotalBits(false))
	}
	r1 := rand.New(rand.NewSource(17))
	r2 := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		latchOnly := i%4 == 0
		if got, want := p.RandomBit(r1, latchOnly), f.RandomBit(r2, latchOnly); got != want {
			t.Fatalf("draw %d: fallback %+v != File.RandomBit %+v", i, got, want)
		}
	}
}

// TestProvenSample: the oracle's sampler returns only proven bits, covers
// all of them, and reports ok=false on an unproven population.
func TestProvenSample(t *testing.T) {
	_, p, elems := provedFile(t)
	rng := rand.New(rand.NewSource(21))
	seen := make(map[state.BitRef]bool)
	for i := 0; i < 5000; i++ {
		b, ok := p.ProvenSample(rng, false)
		if !ok {
			t.Fatal("ProvenSample reported nothing proven")
		}
		if _, proven := p.Proven(b); !proven {
			t.Fatalf("ProvenSample returned unproven bit %s[%d].%d", b.Elem.Name(), b.Entry, b.Bit)
		}
		seen[b] = true
	}
	if got := uint64(len(seen)); got != p.ProvenBits(false) {
		t.Errorf("sampled %d distinct proven bits, want %d", got, p.ProvenBits(false))
	}
	if _, ok := p.ProvenSample(rng, true); ok {
		t.Error("latch-only sample succeeded although only RAM bits are proven")
	}
	_ = elems
}

// TestCoverage: the per-(category, rule) report matches the partition and
// comes out in deterministic category order.
func TestCoverage(t *testing.T) {
	f, elems := testFile()
	q, w := elems["q.data"], elems["wide"]
	tr := record(f, func(cycle func(uint64)) {
		cycle(2)
		w.Get(0)
		cycle(3)
		q.Set(0, 7) // liveness: 16 bits of CatData
		w.Set(0, 1) // mask: 8 of 12 bits of CatCtrl
	})
	hints := Hints{Masks: map[string]uint64{"wide": 0x00F}}
	p := Compute(f, tr, 0, 100, hints, RuleAll)
	cov := p.Coverage()
	want := []CatRule{
		{Category: state.CatCtrl, Rule: RuleMask, Proven: 8},
		{Category: state.CatData, Rule: RuleLiveness, Proven: 16},
	}
	if len(cov) != len(want) {
		t.Fatalf("Coverage() = %+v, want %+v", cov, want)
	}
	for i := range want {
		if cov[i] != want[i] {
			t.Errorf("Coverage()[%d] = %+v, want %+v", i, cov[i], want[i])
		}
	}
}
