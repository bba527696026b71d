package state

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// laneTestFile builds a file whose 1-bit lane element spans three words
// (the last partially filled) and is sandwiched between odd-width
// neighbors, so lane ops run with a nonzero wordBase and a padded tail.
func laneTestFile() (*File, *Elem) {
	f := New()
	f.Latch("pre", CatCtrl, 3, 9)
	e := f.Latch("valid", CatValid, 150, 1)
	f.RAM("post", CatData, 4, 17)
	f.Freeze()
	return f, e
}

// Scalar reference implementations: the loops every lane op is defined
// against.

func refFirstSet(e *Elem, lo, hi int) int {
	for i := lo; i < hi; i++ {
		if e.Bool(i) {
			return i
		}
	}
	return -1
}

func refFirstClear(e *Elem, lo, hi int) int {
	for i := lo; i < hi; i++ {
		if !e.Bool(i) {
			return i
		}
	}
	return -1
}

func refCountRange(e *Elem, lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		if e.Bool(i) {
			n++
		}
	}
	return n
}

// refWordOf reads mask's entries of word w through Bool and assembles
// them into a word.
func refWordOf(e *Elem, w int, mask uint64) uint64 {
	var v uint64
	for m := mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if e.Bool(w*64 + b) {
			v |= 1 << b
		}
	}
	return v
}

func refSetMask(e *Elem, w int, mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		e.Set(w*64+bits.TrailingZeros64(m), 1)
	}
}

func refClearMask(e *Elem, w int, mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		e.Set(w*64+bits.TrailingZeros64(m), 0)
	}
}

// TestLaneDifferentialFuzz drives random op sequences over a paired lane
// file and scalar-reference file and asserts the two stay bit-identical in
// every externally observable dimension: op results, word contents, digest,
// journal rollback, and (when traced) touch-trace contents.
func TestLaneDifferentialFuzz(t *testing.T) {
	for _, traced := range []struct {
		name string
		on   bool
	}{{"untraced", false}, {"traced", true}} {
		t.Run(traced.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				fa, ea := laneTestFile()
				fb, eb := laneTestFile()
				la := ea.Lane()
				rng := rand.New(rand.NewSource(seed))

				// Pre-populate identically so rollback has nontrivial state
				// to restore, then journal and mark both files.
				for i := 0; i < 150; i++ {
					v := rng.Uint64() & 1
					ea.Set(i, v)
					eb.Set(i, v)
				}
				fa.BeginJournal()
				fb.BeginJournal()
				ma, mb := fa.Mark(), fb.Mark()
				preDigest := fa.Digest()

				var wa, wb *window
				cyc := uint64(1)
				if traced.on {
					wa, wb = openWindow(fa), openWindow(fb)
					wa.at(cyc)
					wb.at(cyc)
				}

				randRange := func() (int, int) {
					lo := rng.Intn(151)
					return lo, lo + rng.Intn(151-lo)
				}
				randMask := func() (int, uint64) {
					w := rng.Intn(3)
					mask := rng.Uint64()
					if w == 2 {
						mask &= 1<<(150-128) - 1
					}
					return w, mask
				}
				for k := 0; k < 1500; k++ {
					switch rng.Intn(10) {
					case 0:
						w, mask := randMask()
						la.SetMask(w, mask)
						refSetMask(eb, w, mask)
					case 1:
						w, mask := randMask()
						la.ClearMask(w, mask)
						refClearMask(eb, w, mask)
					case 2:
						lo, hi := randRange()
						if got, want := la.FirstSet(lo, hi), refFirstSet(eb, lo, hi); got != want {
							t.Fatalf("seed %d op %d: FirstSet(%d,%d) = %d, want %d", seed, k, lo, hi, got, want)
						}
					case 3:
						lo, hi := randRange()
						if got, want := la.FirstClear(lo, hi), refFirstClear(eb, lo, hi); got != want {
							t.Fatalf("seed %d op %d: FirstClear(%d,%d) = %d, want %d", seed, k, lo, hi, got, want)
						}
					case 4:
						lo, hi := randRange()
						if got, want := la.CountRange(lo, hi), refCountRange(eb, lo, hi); got != want {
							t.Fatalf("seed %d op %d: CountRange(%d,%d) = %d, want %d", seed, k, lo, hi, got, want)
						}
					case 5:
						lo, hi := randRange()
						if got, want := la.AnySet(lo, hi), refFirstSet(eb, lo, hi) >= 0; got != want {
							t.Fatalf("seed %d op %d: AnySet(%d,%d) = %v, want %v", seed, k, lo, hi, got, want)
						}
						if lo < 150 {
							if got, want := la.NextSet(lo, hi), refFirstSet(eb, lo+1, hi); got != want {
								t.Fatalf("seed %d op %d: NextSet(%d,%d) = %d, want %d", seed, k, lo, hi, got, want)
							}
						}
					case 6:
						// Interleave plain scalar writes on both files.
						i, v := rng.Intn(150), rng.Uint64()&1
						ea.Set(i, v)
						eb.Set(i, v)
					case 7:
						w := rng.Intn(3)
						all := ^uint64(0)
						if w == 2 {
							all = 1<<(150-128) - 1
						}
						raw := eb.words[eb.wordBase+uint64(w)]
						if got, want := la.Word(w), refWordOf(eb, w, all); got != want || got != raw {
							t.Fatalf("seed %d op %d: Word(%d) = %#x, want %#x (raw %#x)", seed, k, w, got, want, raw)
						}
					case 8:
						w, mask := randMask()
						raw := eb.words[eb.wordBase+uint64(w)]
						got := la.WordOf(w, mask)
						if want := refWordOf(eb, w, mask); got&mask != want || got != raw {
							t.Fatalf("seed %d op %d: WordOf(%d, %#x) = %#x, want %#x under the mask (raw %#x)",
								seed, k, w, mask, got, want, raw)
						}
					case 9:
						if traced.on {
							cyc++
							wa.at(cyc)
							wb.at(cyc)
						}
					}
					if fa.Digest() != fb.Digest() {
						t.Fatalf("seed %d op %d: digest diverged", seed, k)
					}
					if fa.JournalLen() != fb.JournalLen() {
						t.Fatalf("seed %d op %d: journal length diverged: %d vs %d", seed, k, fa.JournalLen(), fb.JournalLen())
					}
				}

				if traced.on {
					ta, tb := wa.close(), wb.close()
					likeFields := []struct {
						name string
						get  func(*WindowTrace, uint64) uint64
					}{
						{"FirstRead", (*WindowTrace).FirstRead},
						{"FirstSet", (*WindowTrace).FirstSet},
						{"LastRead", (*WindowTrace).LastRead},
						{"LastSet", (*WindowTrace).LastSet},
						{"CopyDst", (*WindowTrace).CopyDst},
						{"LastCopy", (*WindowTrace).LastCopy},
						{"ObsPre", (*WindowTrace).ObsPre},
					}
					for _, fl := range likeFields {
						for i := uint64(0); i < uint64(ta.Len()); i++ {
							if a, b := fl.get(ta, i), fl.get(tb, i); a != b {
								t.Fatalf("seed %d: trace %s[%d] = %d, want %d", seed, fl.name, i, a, b)
							}
						}
					}
				}
				if !fa.Equal(fb) {
					t.Fatalf("seed %d: final contents diverged", seed)
				}
				if got, want := fa.Digest(), fa.RecomputeDigest(); got != want {
					t.Fatalf("seed %d: lane digest %#x != recomputed %#x", seed, got, want)
				}

				// Journal rollback must restore both files to the mark.
				fa.RollbackTo(ma)
				fb.RollbackTo(mb)
				if fa.Digest() != preDigest || fb.Digest() != preDigest {
					t.Fatalf("seed %d: rollback digest %#x / %#x, want %#x", seed, fa.Digest(), fb.Digest(), preDigest)
				}
				if !fa.Equal(fb) {
					t.Fatalf("seed %d: rolled-back contents diverged", seed)
				}
				if got, want := fa.Digest(), fa.RecomputeDigest(); got != want {
					t.Fatalf("seed %d: rolled-back digest %#x != recomputed %#x", seed, got, want)
				}
			}
		})
	}
}

// TestLaneTracedMatchesUntraced pins that tracing is pure observation for
// lane ops: the same write sequence leaves identical contents, digest and
// undo journal whether or not a trace was attached.
func TestLaneTracedMatchesUntraced(t *testing.T) {
	run := func(traced bool) (*File, int) {
		f, e := laneTestFile()
		l := e.Lane()
		f.BeginJournal()
		var w *window
		if traced {
			w = openWindow(f)
			w.at(1)
		}
		rng := rand.New(rand.NewSource(99))
		for k := 0; k < 400; k++ {
			w := rng.Intn(3)
			mask := rng.Uint64()
			if w == 2 {
				mask &= 1<<(150-128) - 1
			}
			if k%2 == 0 {
				l.SetMask(w, mask)
			} else {
				l.ClearMask(w, mask)
			}
		}
		if traced {
			w.close()
		}
		return f, f.JournalLen()
	}
	fu, ju := run(false)
	ft, jt := run(true)
	if !fu.Equal(ft) {
		t.Fatal("traced and untraced lane runs left different contents")
	}
	if fu.Digest() != ft.Digest() {
		t.Fatal("traced and untraced lane runs left different digests")
	}
	if ju != jt {
		t.Fatalf("traced and untraced lane runs logged different journals: %d vs %d words", ju, jt)
	}
}

func TestLaneLifecyclePanics(t *testing.T) {
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
	mustPanicWith("Lane before Freeze", "Lane before Freeze", func() {
		f := New()
		e := f.Latch("v", CatValid, 4, 1)
		e.Lane()
	})
	mustPanicWith("Lane on multi-bit", "Lane on multi-bit element", func() {
		f := New()
		e := f.RAM("x", CatData, 4, 7)
		f.Freeze()
		e.Lane()
	})
	mustPanicWith("mask past element end", "mask past element end", func() {
		_, e := laneTestFile()
		e.Lane().SetMask(2, 1<<(150-128))
	})
	mustPanicWith("word out of bounds", "word out of bounds", func() {
		_, e := laneTestFile()
		e.Lane().ClearMask(3, 1)
	})
	mustPanicWith("range out of bounds", "range out of bounds", func() {
		_, e := laneTestFile()
		e.Lane().FirstSet(0, 151)
	})
	mustPanicWith("traced WordOf past element end", "mask past element end", func() {
		f, e := laneTestFile()
		f.StartTrace(f.NewSweep())
		e.Lane().WordOf(2, 1<<(150-128))
	})
}

// TestLaneWordView pins the raw word accessor against scalar bit reads.
func TestLaneWordView(t *testing.T) {
	f, e := laneTestFile()
	l := e.Lane()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		e.Set(i, rng.Uint64()&1)
	}
	if l.Words() != 3 {
		t.Fatalf("Words() = %d, want 3", l.Words())
	}
	for w := 0; w < l.Words(); w++ {
		var want uint64
		for b := 0; b < 64 && w*64+b < 150; b++ {
			if e.Bool(w*64 + b) {
				want |= 1 << b
			}
		}
		if got := l.Word(w); got != want {
			t.Fatalf("Word(%d) = %#x, want %#x", w, got, want)
		}
	}
	_ = f
}
