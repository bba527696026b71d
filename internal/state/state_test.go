package state

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// newTestFile builds a small file exercising odd widths and both kinds.
func newTestFile() (*File, []*Elem) {
	f := New()
	elems := []*Elem{
		f.Latch("pc", CatPC, 1, 62),
		f.Latch("valid", CatValid, 13, 1),
		f.RAM("regfile", CatRegFile, 80, 64),
		f.RAM("rat", CatSpecRAT, 32, 7),
		f.Latch("ctrl", CatCtrl, 5, 9),
		f.RAM("icache", CatInsn, 64, 32, NotInjectable()),
	}
	f.Freeze()
	return f, elems
}

// inModes runs fn on a fresh newTestFile twice: once plain and once with
// the digest held by a one-window sweep, which keeps the file hashed.
// While a file is plain, Digest is the from-scratch fold, so a digest
// check there tests only the words; the held run holds the incremental
// digest, and every write path that maintains it, to the check.
func inModes(t *testing.T, fn func(t *testing.T, f *File, elems []*Elem)) {
	t.Helper()
	for _, hashed := range []bool{false, true} {
		name := "plain"
		if hashed {
			name = "held"
		}
		t.Run(name, func(t *testing.T) {
			f, elems := newTestFile()
			var w *window
			if hashed {
				w = openWindow(f)
				w.at(1)
			}
			fn(t, f, elems)
			if f.hashed != hashed {
				t.Fatalf("file hashed = %v at the end, want %v", f.hashed, hashed)
			}
			if w != nil {
				w.close()
			}
		})
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	f, elems := newTestFile()
	for _, e := range elems {
		for i := 0; i < e.Entries(); i += 1 + e.Entries()/7 {
			want := uint64(0xDEADBEEFCAFEBABE)
			if e.Width() < 64 {
				want &= uint64(1)<<uint(e.Width()) - 1
			}
			e.Set(i, 0xDEADBEEFCAFEBABE)
			if got := e.Get(i); got != want {
				t.Errorf("%s[%d] = %#x, want %#x (width %d)", e.Name(), i, got, want, e.Width())
			}
		}
	}
	_ = f
}

func TestSetTruncatesToWidth(t *testing.T) {
	f := New()
	e := f.RAM("x", CatData, 4, 7)
	f.Freeze()
	e.Set(2, 0xFFF)
	if got := e.Get(2); got != 0x7F {
		t.Errorf("Get = %#x, want 0x7F", got)
	}
	if got := e.Get(1); got != 0 {
		t.Errorf("neighbour entry dirtied: %#x", got)
	}
	if got := e.Get(3); got != 0 {
		t.Errorf("neighbour entry dirtied: %#x", got)
	}
}

// TestPackedNeighboursProperty: writing any entry of a straddling-width
// element must not disturb its neighbours.
func TestPackedNeighboursProperty(t *testing.T) {
	f := func(width8 uint8, seed int64) bool {
		width := int(width8%63) + 1
		file := New()
		e := file.RAM("a", CatData, 20, width)
		file.Freeze()
		rng := rand.New(rand.NewSource(seed))
		ref := make([]uint64, 20)
		for k := 0; k < 200; k++ {
			i := rng.Intn(20)
			v := rng.Uint64()
			e.Set(i, v)
			ref[i] = v & (uint64(1)<<uint(width) - 1)
			if width == 64 {
				ref[i] = v
			}
		}
		for i, want := range ref {
			if e.Get(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDigestIsPureFunctionOfState: two different write sequences reaching
// the same final contents must produce the same digest.
func TestDigestIsPureFunctionOfState(t *testing.T) {
	for _, hashed := range []bool{false, true} {
		if d1, d2 := digestAfterWrites(hashed, []int{0, 1, 2, 3, 4, 5, 6, 7}),
			digestAfterWrites(hashed, []int{7, 3, 5, 1, 6, 0, 2, 4}); d1 != d2 {
			t.Errorf("hashed %v: digest depends on write order: %#x vs %#x", hashed, d1, d2)
		}
	}
}

// digestAfterWrites scribbles over a fresh file and then settles it to the
// same final values, visiting entries in the given order; hashed keeps the
// digest maintained throughout, under a one-window sweep.
func digestAfterWrites(hashed bool, order []int) uint64 {
	vals := []uint64{1, 2, 3, 0, 5, 0x1FFFF, 7, 8}
	f := New()
	e := f.RAM("a", CatData, 8, 17)
	f.Freeze()
	if hashed {
		openWindow(f).at(1)
	}
	for _, i := range order {
		e.Set(i, vals[(i+3)%8]^0x5A5A)
	}
	for _, i := range order {
		e.Set(i, vals[i])
	}
	return f.Digest()
}

func TestDigestDetectsAnySingleBitFlip(t *testing.T) {
	inModes(t, func(t *testing.T, f *File, elems []*Elem) {
		rng := rand.New(rand.NewSource(7))
		for _, e := range elems {
			for i := 0; i < e.Entries(); i++ {
				e.Set(i, rng.Uint64())
			}
		}
		base := f.Digest()
		for _, e := range elems {
			for bit := 0; bit < e.Width(); bit++ {
				e.Flip(0, bit)
				if f.Digest() == base {
					t.Fatalf("flip of %s[0].%d not reflected in digest", e.Name(), bit)
				}
				e.Flip(0, bit)
				if f.Digest() != base {
					t.Fatalf("double flip of %s[0].%d did not restore digest", e.Name(), bit)
				}
			}
		}
	})
}

// TestDigestMatchesEqualProperty: after random mutations, two files have
// equal digests iff they have equal contents. The first file keeps its
// digest incrementally, the second is plain.
func TestDigestMatchesEqualProperty(t *testing.T) {
	prop := func(seedA, seedB int64) bool {
		mutate := func(seed int64, hashed bool) *File {
			f, _ := newTestFile()
			if hashed {
				openWindow(f).at(1)
			}
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 50; k++ {
				es := f.Elems()
				e := es[rng.Intn(len(es))]
				e.Set(rng.Intn(e.Entries()), rng.Uint64())
			}
			return f
		}
		a, b := mutate(seedA, true), mutate(seedB, false)
		return (a.Digest() == b.Digest()) == a.Equal(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	inModes(t, func(t *testing.T, f *File, elems []*Elem) {
		rng := rand.New(rand.NewSource(42))
		for _, e := range elems {
			for i := 0; i < e.Entries(); i++ {
				e.Set(i, rng.Uint64())
			}
		}
		snap := f.Snapshot()
		digest := f.Digest()
		for _, e := range elems {
			e.Set(0, e.Get(0)^1)
		}
		if f.Digest() == digest {
			t.Fatal("mutation not visible")
		}
		f.Restore(snap)
		if f.Digest() != digest || f.RecomputeDigest() != digest {
			t.Error("digest not restored")
		}
		// Snapshot must be isolated from later mutation: the words
		// restored into a second file fold to the captured digest.
		elems[0].Set(0, 0)
		f2, _ := newTestFile()
		f2.Restore(snap)
		if f2.RecomputeDigest() != digest {
			t.Error("snapshot was aliased to live words")
		}
	})
}

// TestDeltaPatch: a delta recorded against a base snapshot stores only the
// words that differ from it, patches back onto the base to exactly the
// recorded contents (digest included, so the patched snapshot restores
// like a full one), and reusing a delta or a scratch snapshot for a
// smaller difference leaves nothing of the larger one behind.
func TestDeltaPatch(t *testing.T) {
	inModes(t, func(t *testing.T, f *File, elems []*Elem) {
		rng := rand.New(rand.NewSource(7))
		for _, e := range elems {
			for i := 0; i < e.Entries(); i++ {
				e.Set(i, rng.Uint64())
			}
		}
		base := f.Snapshot()

		var d Delta
		var patched Snapshot
		for _, n := range []int{40, 3} { // the second, smaller delta reuses the first's storage
			f.Restore(base)
			for k := 0; k < n; k++ {
				e := elems[rng.Intn(len(elems))]
				e.Set(rng.Intn(e.Entries()), rng.Uint64())
			}
			f.DeltaInto(&d, base)
			want := f.Snapshot()
			differ := 0
			for i := range want.words {
				if want.words[i] != base.words[i] {
					differ++
				}
			}
			if len(d.idx) != differ || len(d.val) != differ {
				t.Errorf("%d writes: delta holds %d/%d words, want the %d that differ from the base", n, len(d.idx), len(d.val), differ)
			}
			d.PatchInto(&patched, base)
			if !f.DiffEntries(&patched, func(uint64) bool { return false }) || patched.digest != want.digest {
				t.Fatalf("%d writes: base patched with the delta differs from the recorded contents", n)
			}
			f.Restore(base)
			f.Restore(&patched)
			if f.Digest() != f.RecomputeDigest() || f.Digest() != want.digest {
				t.Fatalf("%d writes: restoring the patched snapshot skewed the digest", n)
			}
		}
	})
}

func TestReset(t *testing.T) {
	inModes(t, func(t *testing.T, f *File, elems []*Elem) {
		zero := f.Digest()
		elems[2].Set(5, 123)
		f.Reset()
		if f.Digest() != zero || f.RecomputeDigest() != zero {
			t.Error("reset digest != zero digest")
		}
		if elems[2].Get(5) != 0 {
			t.Error("reset left contents")
		}
	})
}

func TestInjectableAccounting(t *testing.T) {
	f, _ := newTestFile()
	wantAll := uint64(62 + 13 + 80*64 + 32*7 + 45) // icache excluded
	if got := f.InjectableBits(false); got != wantAll {
		t.Errorf("InjectableBits(all) = %d, want %d", got, wantAll)
	}
	wantLatch := uint64(62 + 13 + 45)
	if got := f.InjectableBits(true); got != wantLatch {
		t.Errorf("InjectableBits(latch) = %d, want %d", got, wantLatch)
	}
}

func TestRandomBitUniformCoverage(t *testing.T) {
	f, _ := newTestFile()
	rng := rand.New(rand.NewSource(1))
	counts := make(map[string]int)
	const trials = 20000
	for i := 0; i < trials; i++ {
		b := f.RandomBit(rng, false)
		if !b.Elem.Injectable() {
			t.Fatalf("picked non-injectable element %s", b.Elem.Name())
		}
		if b.Entry >= b.Elem.Entries() || b.Bit >= b.Elem.Width() {
			t.Fatalf("out of range pick %v", b)
		}
		counts[b.Elem.Name()]++
	}
	// regfile has 5120 of 5404 injectable bits ~ 94.7%.
	frac := float64(counts["regfile"]) / trials
	if frac < 0.92 || frac > 0.97 {
		t.Errorf("regfile picked %.3f of the time, want ~0.947", frac)
	}
	// Latch-only campaigns must never pick RAM bits.
	for i := 0; i < 2000; i++ {
		b := f.RandomBit(rng, true)
		if b.Elem.Kind() != KindLatch {
			t.Fatalf("latch-only pick landed on %s (%v)", b.Elem.Name(), b.Elem.Kind())
		}
	}
}

func TestBitRefFlip(t *testing.T) {
	inModes(t, func(t *testing.T, f *File, elems []*Elem) {
		ref := BitRef{Elem: elems[2], Entry: 10, Bit: 63}
		before := f.Digest()
		ref.Flip()
		if elems[2].Get(10) != 1<<63 {
			t.Errorf("flip produced %#x", elems[2].Get(10))
		}
		if f.Digest() == before {
			t.Error("flip not reflected in the digest")
		}
		ref.Flip()
		if f.Digest() != before {
			t.Error("double flip not identity")
		}
	})
}

func TestCategoryBits(t *testing.T) {
	f, _ := newTestFile()
	cb := f.CategoryBits()
	if cb[CatRegFile].RAM != 80*64 || cb[CatRegFile].Latch != 0 {
		t.Errorf("regfile bits = %+v", cb[CatRegFile])
	}
	if cb[CatValid].Latch != 13 {
		t.Errorf("valid bits = %+v", cb[CatValid])
	}
	if _, ok := cb[CatInsn]; ok {
		t.Error("non-injectable icache counted in Table 1 data")
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() {
		f := New()
		f.Latch("x", CatCtrl, 1, 1)
		f.Latch("x", CatCtrl, 1, 1)
	})
	mustPanic("width 65", func() {
		f := New()
		f.RAM("y", CatData, 1, 65)
	})
	mustPanic("after freeze", func() {
		f := New()
		f.Freeze()
		f.Latch("z", CatCtrl, 1, 1)
	})
	mustPanic("zero entries", func() {
		f := New()
		f.RAM("e0", CatData, 0, 8)
	})
	mustPanic("zero width", func() {
		f := New()
		f.Latch("w0", CatData, 1, 0)
	})
	mustPanic("negative entries", func() {
		f := New()
		f.RAM("en", CatData, -1, 8)
	})
}

// TestWidth64Boundary pins that the widest legal element registers and
// round-trips full 64-bit values (the mask edge case).
func TestWidth64Boundary(t *testing.T) {
	f := New()
	e := f.RAM("wide", CatData, 2, 64)
	f.Freeze()
	v := ^uint64(0)
	e.Set(1, v)
	if got := e.Get(1); got != v {
		t.Errorf("width-64 round trip: got %#x, want %#x", got, v)
	}
}

// TestUnfrozenLifecyclePanics: injection-path entry points must fail
// loudly, with a message naming the contract, when the file has not been
// frozen — not fall into an opaque bounds trap.
func TestUnfrozenLifecyclePanics(t *testing.T) {
	mustPanicWith := func(name, want string, fn func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s did not panic", name)
				return
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, want) {
				t.Errorf("%s panicked with %v, want message containing %q", name, r, want)
			}
		}()
		fn()
	}
	mustPanicWith("Flip before Freeze", "Flip on unfrozen file", func() {
		f := New()
		e := f.Latch("pre", CatCtrl, 1, 1)
		e.Flip(0, 0)
	})
	mustPanicWith("RandomBit before Freeze", "RandomBit before Freeze", func() {
		f := New()
		f.Latch("pre", CatCtrl, 1, 1)
		f.RandomBit(rand.New(rand.NewSource(1)), false)
	})
}

func TestBoolHelpers(t *testing.T) {
	f := New()
	v := f.Latch("v", CatValid, 4, 1)
	f.Freeze()
	v.SetBool(2, true)
	if !v.Bool(2) || v.Bool(1) {
		t.Error("bool helpers broken")
	}
	if !v.GetBit(2, 0) {
		t.Error("GetBit broken")
	}
	v.SetBool(2, false)
	if v.Bool(2) {
		t.Error("SetBool(false) broken")
	}
}

func BenchmarkSet(b *testing.B) {
	f := New()
	e := f.RAM("x", CatData, 64, 62)
	f.Freeze()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Set(i&63, uint64(i))
	}
}

func BenchmarkRandomBit(b *testing.B) {
	f, _ := newTestFile()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.RandomBit(rng, false)
	}
}

// digestScript applies n random writes drawn from rng: Sets, Flips,
// CopyEntry between equal-width elements and lane SetMask/ClearMask on the
// 1-bit element, the writers whose plain and hashed paths differ.
func digestScript(f *File, rng *rand.Rand, n int) {
	es := f.Elems()
	valid := f.Elem("valid")
	for k := 0; k < n; k++ {
		e := es[rng.Intn(len(es))]
		i := rng.Intn(e.Entries())
		switch rng.Intn(5) {
		case 0:
			e.Flip(i, rng.Intn(e.Width()))
		case 1:
			CopyEntry(e, i, e, rng.Intn(e.Entries()))
		case 2:
			valid.Lane().SetMask(0, rng.Uint64()&(1<<valid.Entries()-1))
		case 3:
			valid.Lane().ClearMask(0, rng.Uint64()&(1<<valid.Entries()-1))
		default:
			e.Set(i, rng.Uint64())
		}
	}
}

// TestDigestPlainHashedTransitions: a plain file (no journal and no sweep:
// Set stores raw and keeps no digest) and a hashed one run the same
// random scripts to the same words, and after every switch between the
// two modes the digest equals the from-scratch fold — including Restore
// and RestoreDelta of images captured while plain, whose digest must have
// been folded at capture.
func TestDigestPlainHashedTransitions(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		plain, _ := newTestFile()
		hashed, _ := newTestFile()
		openWindow(hashed).at(1)
		digestScript(plain, rand.New(rand.NewSource(seed)), 400)
		digestScript(hashed, rand.New(rand.NewSource(seed)), 400)
		if plain.hashed || !hashed.hashed {
			t.Fatalf("seed %d: modes plain=%v hashed=%v", seed, plain.hashed, hashed.hashed)
		}
		if !plain.Equal(hashed) {
			t.Fatalf("seed %d: plain and hashed scripts left different words", seed)
		}
		if plain.Digest() != hashed.Digest() || hashed.Digest() != hashed.RecomputeDigest() {
			t.Fatalf("seed %d: digests plain %#x, hashed %#x, recomputed %#x", seed,
				plain.Digest(), hashed.Digest(), hashed.RecomputeDigest())
		}
	}

	f, _ := newTestFile()
	rng := rand.New(rand.NewSource(9))
	check := func(step string, wantHashed bool) {
		t.Helper()
		if f.hashed != wantHashed {
			t.Fatalf("%s: hashed = %v, want %v", step, f.hashed, wantHashed)
		}
		if d, r := f.Digest(), f.RecomputeDigest(); d != r {
			t.Fatalf("%s: digest %#x != recomputed %#x", step, d, r)
		}
	}
	// run writes while in the mode the last transition set, then checks
	// that mode's digest.
	run := func(step string, wantHashed bool) {
		t.Helper()
		check(step, wantHashed)
		digestScript(f, rng, 200)
		check(step+" + script", wantHashed)
	}
	run("plain", false)
	base := f.Snapshot()
	digestScript(f, rng, 50)
	var delta Delta
	f.DeltaInto(&delta, base)
	img := f.Snapshot()
	want := img.digest

	f.BeginJournal()
	run("BeginJournal", true)
	m := f.Mark()
	digestScript(f, rng, 50)
	f.RollbackTo(m)
	check("RollbackTo", true)
	f.CommitJournal()
	run("CommitJournal", false)

	sw := f.NewSweep()
	f.StartTrace(sw)
	f.TraceCycle(1)
	run("StartTrace", true)
	f.StopTrace()
	run("StopTrace", false)

	// The plain write paths that bypass Set's one-word store: a straddling
	// row, a CopyEntry onto one, and both lane masks. A hashed twin takes
	// the same writes; once a sweep attaches, the plain file must hold the
	// twin's words and digest, and keep folding like it.
	twin, _ := newTestFile()
	twin.Restore(f.Snapshot())
	openWindow(twin).at(1)
	rat := f.Elem("rat")
	if bit := rat.bitBase + 9*rat.stride; bit&63 <= rat.strSh {
		t.Fatal("rat[9] does not straddle a word boundary")
	}
	plainWrites := func(g *File) {
		r, v := g.Elem("rat"), g.Elem("valid").Lane()
		r.Set(9, r.Get(9)^0x55)
		g.Elem("regfile").Set(3, 0xdeadbeefcafef00d)
		CopyEntry(r, 18, g.Elem("regfile"), 3) // 18*7 = 126: straddles too
		v.SetMask(0, 0x0a5a)
		v.ClearMask(0, 0x1421)
	}
	plainWrites(f)
	plainWrites(twin)
	check("plain straddle, CopyEntry and lane masks", false)
	fw := openWindow(f)
	fw.at(1)
	check("one-window sweep", true)
	if !f.Equal(twin) || f.Digest() != twin.Digest() {
		t.Fatalf("plain writes: words equal %v, digest %#x, hashed twin %#x", f.Equal(twin), f.Digest(), twin.Digest())
	}
	plainWrites(f)
	plainWrites(twin)
	if f.Digest() != twin.Digest() || f.Digest() != f.RecomputeDigest() {
		t.Fatalf("hashed writes: digest %#x, hashed twin %#x, recomputed %#x", f.Digest(), twin.Digest(), f.RecomputeDigest())
	}
	run("one-window sweep", true)
	f.Restore(img)
	check("Restore of a plain image", true)
	if f.Digest() != want {
		t.Fatalf("Restore of a plain image: digest %#x, want %#x", f.Digest(), want)
	}
	digestScript(f, rng, 50)
	f.RestoreDelta(&delta, base)
	check("RestoreDelta of a plain image", true)
	if f.Digest() != want {
		t.Fatalf("RestoreDelta of a plain image: digest %#x, want %#x", f.Digest(), want)
	}
	// A journal begun under a sweep keeps the file hashed past StopTrace.
	f.BeginJournal()
	fw.close()
	run("StopTrace under a journal", true)
	f.CommitJournal()
	run("CommitJournal after StopTrace", false)
	f.StopTrace()
	check("second StopTrace", false)
}

// TestRecomputeDigestStampsNoTouch: the from-scratch fold reads the words
// directly, so folding while a sweep records leaves no touch in it.
func TestRecomputeDigestStampsNoTouch(t *testing.T) {
	f, elems := newTestFile()
	w := openWindow(f)
	w.at(1)
	n := w.sw.LogLen()
	f.RecomputeDigest()
	f.Digest()
	if w.sw.LogLen() != n {
		t.Fatalf("RecomputeDigest grew the sweep log %d -> %d", n, w.sw.LogLen())
	}
	tr := w.close()
	for _, e := range elems {
		for i := 0; i < e.Entries(); i++ {
			if k := e.EntryIndex(i); tr.FirstRead(k) != 0 || tr.LastRead(k) != 0 {
				t.Fatalf("%s[%d] stamped read at %d/%d", e.Name(), i, tr.FirstRead(k), tr.LastRead(k))
			}
		}
	}
}
