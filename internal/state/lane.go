package state

import "math/bits"

// BitLane is a word-parallel view over a frozen 1-bit element. Elements are
// word-aligned at Freeze, so entry i of the element is bit i%64 of backing
// word wordBase+i/64 and a lane op can scan or rewrite 64 entries per
// machine word via math/bits.
//
// Equivalence contract: every lane op is defined by a scalar reference loop
// over Elem.Bool/Set, and is bit-identical to that loop in all externally
// observable state — word contents, file digest, undo-journal rollback
// behavior, and touch-trace contents. Traced or not, an op runs one
// word-parallel body; while a touch trace is attached it first stamps
// exactly the entries its reference loop reads or sets. A touch record is
// per entry, so stamping a word's entries ahead of the word op leaves every
// record as the loop would have left it: within one cycle only each entry's
// own read-before-set order matters (ObsPre), and the op reads or writes
// each entry at most once. The write ops fold the identical per-bit digest
// terms and log the identical journal pre-image (one first-touch entry per
// dirtied word, exactly what the scalar loop's first Set would log).
// FirstSet and FirstClear alone keep a traced scalar scan: their early exit
// is what defines which entries the reference loop read.
type BitLane struct {
	e        *Elem
	wordBase uint64
	n        int
}

// Lane returns the element's word-parallel view. Only frozen 1-bit
// elements have one: wider rows interleave entries across word boundaries
// and take the scalar accessors.
func (e *Elem) Lane() BitLane {
	if !e.file.frozen {
		panic("state: Lane before Freeze: " + e.name)
	}
	if e.width != 1 {
		panic("state: Lane on multi-bit element: " + e.name)
	}
	return BitLane{e: e, wordBase: e.wordBase, n: e.entries}
}

// Entries returns the number of 1-bit entries in the lane.
func (l BitLane) Entries() int { return l.n }

// Word returns the raw backing word w (entries 64w .. 64w+63; entries past
// the element end read as 0 — layout padding is kept zero). Scalar
// reference: Bool over every entry of the word inside the element, so a
// traced Word stamps a read on each of them.
func (l BitLane) Word(w int) uint64 {
	if l.e.trace != nil {
		l.stampWord(w)
	}
	return l.e.words[l.wordBase+uint64(w)]
}

// WordOf returns word w like Word, but its scalar reference reads only
// mask's entries, so a traced WordOf stamps just those. A short-circuit
// chain such as !valid(s) || issued(s) over every entry s becomes
// v := Word(0); i := WordOf(0, v): the second element is read only where
// the first let the scalar loop reach it.
func (l BitLane) WordOf(w int, mask uint64) uint64 {
	if l.e.trace != nil {
		l.stamp(w, mask, false)
	}
	return l.e.words[l.wordBase+uint64(w)]
}

// stampWord records a read of every entry of word w inside the element.
func (l BitLane) stampWord(w int) {
	mask := ^uint64(0)
	if rem := l.n - w<<6; rem < 64 {
		mask >>= 64 - rem // rem <= 0 leaves 0; stamp rejects the word
	}
	l.stamp(w, mask, false)
}

// stamp records a read — or, with set, a write — of entry 64w+b for each
// bit b of mask on the attached touch trace. The stamp helpers are
// outlined so Word and WordOf stay inlinable; they run only while a trace
// is attached.
func (l BitLane) stamp(w int, mask uint64, set bool) {
	l.maskCheck(w, mask)
	s := l.e.trace
	base := l.e.entryBase + uint64(w)<<6
	for m := mask; m != 0; m &= m - 1 {
		switch g := base + uint64(bits.TrailingZeros64(m)); {
		case set:
			if !s.set(g) {
				s.logSet(g)
			}
		case !s.read(g):
			s.observe(g, ^uint64(0), true)
		}
	}
}

// Words returns the number of backing words covering the lane.
func (l BitLane) Words() int { return (l.n + 63) >> 6 }

// rangeCheck validates a [lo, hi) entry range.
func (l BitLane) rangeCheck(lo, hi int) {
	if lo < 0 || hi > l.n || lo > hi {
		panic("state: BitLane range out of bounds: " + l.e.name)
	}
}

// FirstSet returns the index of the first set entry in [lo, hi), or -1.
// Scalar reference: scan Bool(i) ascending, stop at the first hit — so a
// traced FirstSet reads entries lo through the hit inclusive (the whole
// range on a miss), exactly the reads the reference loop performs.
func (l BitLane) FirstSet(lo, hi int) int {
	l.rangeCheck(lo, hi)
	e := l.e
	if e.trace != nil {
		for i := lo; i < hi; i++ {
			if e.Bool(i) {
				return i
			}
		}
		return -1
	}
	if lo >= hi {
		return -1
	}
	words := e.words
	wb := int(l.wordBase)
	w := lo >> 6
	lastW := (hi - 1) >> 6
	cur := words[wb+w] >> (lo & 63) << (lo & 63)
	for {
		if w == lastW {
			if top := (hi - 1) & 63; top != 63 {
				cur &= ^uint64(0) >> (63 - top)
			}
			if cur != 0 {
				return w<<6 + bits.TrailingZeros64(cur)
			}
			return -1
		}
		if cur != 0 {
			return w<<6 + bits.TrailingZeros64(cur)
		}
		w++
		cur = words[wb+w]
	}
}

// NextSet returns the index of the first set entry strictly after i and
// below hi, or -1 (including when no entries remain after i).
func (l BitLane) NextSet(i, hi int) int {
	if i+1 >= hi {
		return -1
	}
	return l.FirstSet(i+1, hi)
}

// FirstClear returns the index of the first clear entry in [lo, hi), or -1.
// Scalar reference: scan Bool(i) ascending, stop at the first clear entry.
func (l BitLane) FirstClear(lo, hi int) int {
	l.rangeCheck(lo, hi)
	e := l.e
	if e.trace != nil {
		for i := lo; i < hi; i++ {
			if !e.Bool(i) {
				return i
			}
		}
		return -1
	}
	if lo >= hi {
		return -1
	}
	words := e.words
	wb := int(l.wordBase)
	w := lo >> 6
	lastW := (hi - 1) >> 6
	cur := ^words[wb+w] >> (lo & 63) << (lo & 63)
	for {
		if w == lastW {
			if top := (hi - 1) & 63; top != 63 {
				cur &= ^uint64(0) >> (63 - top)
			}
			if cur != 0 {
				return w<<6 + bits.TrailingZeros64(cur)
			}
			return -1
		}
		if cur != 0 {
			return w<<6 + bits.TrailingZeros64(cur)
		}
		w++
		cur = ^words[wb+w]
	}
}

// AnySet reports whether any entry in [lo, hi) is set. Scalar reference:
// the FirstSet scan compared against -1.
func (l BitLane) AnySet(lo, hi int) bool {
	return l.FirstSet(lo, hi) >= 0
}

// CountRange returns the number of set entries in [lo, hi). Scalar
// reference: read every entry in the range and count, so a traced
// CountRange stamps a read on each of them.
func (l BitLane) CountRange(lo, hi int) int {
	l.rangeCheck(lo, hi)
	e := l.e
	if s := e.trace; s != nil {
		for i := lo; i < hi; i++ {
			if g := e.entryBase + uint64(i); !s.read(g) {
				s.observe(g, ^uint64(0), true)
			}
		}
	}
	if lo >= hi {
		return 0
	}
	words := e.words
	wb := int(l.wordBase)
	w := lo >> 6
	lastW := (hi - 1) >> 6
	cur := words[wb+w] >> (lo & 63) << (lo & 63)
	n := 0
	for {
		if w == lastW {
			if top := (hi - 1) & 63; top != 63 {
				cur &= ^uint64(0) >> (63 - top)
			}
			return n + bits.OnesCount64(cur)
		}
		n += bits.OnesCount64(cur)
		w++
		cur = words[wb+w]
	}
}

// maskCheck panics when mask addresses entries past the element end: the
// padding bits of the last word are not digest-keyed and must stay zero,
// and a traced stamp would land on a neighboring element's trace key.
func (l BitLane) maskCheck(w int, mask uint64) {
	if w < 0 || w<<6 >= l.n {
		panic("state: BitLane word out of bounds: " + l.e.name)
	}
	if rem := l.n - w<<6; rem < 64 && mask>>rem != 0 {
		panic("state: BitLane mask past element end: " + l.e.name)
	}
}

// SetMask sets every entry 64w+b for each bit b of mask. Scalar reference:
// Set(64w+b, 1) over mask's bits ascending — so a traced SetMask stamps a
// set touch on every masked entry (a golden no-op write still clears a
// trial's corruption). The word path early-outs when no bit changes and,
// while the file is hashed, folds the digest delta with per-bit mix terms
// and logs the word's first-touch pre-image.
func (l BitLane) SetMask(w int, mask uint64) {
	if mask == 0 {
		return
	}
	l.maskCheck(w, mask)
	e := l.e
	if e.trace != nil {
		l.stamp(w, mask, true)
	}
	wi := l.wordBase + uint64(w)
	cur := e.words[wi]
	changed := mask &^ cur
	if changed == 0 {
		return
	}
	// A plain file keeps no digest and no journal (a journal makes it
	// hashed), so the fold and the touch run only while hashed.
	if f := e.file; f.hashed {
		base := e.bitBase + uint64(w)<<6
		d := f.digest
		for m := changed; m != 0; m &= m - 1 {
			b := uint64(bits.TrailingZeros64(m))
			d ^= mix(base+b, 0) ^ mix(base+b, 1)
		}
		f.digest = d
		if f.jOn {
			f.touch(wi)
		}
	}
	e.words[wi] = cur | mask
}

// ClearMask clears every entry 64w+b for each bit b of mask. Scalar
// reference: Set(64w+b, 0) over mask's bits ascending.
func (l BitLane) ClearMask(w int, mask uint64) {
	if mask == 0 {
		return
	}
	l.maskCheck(w, mask)
	e := l.e
	if e.trace != nil {
		l.stamp(w, mask, true)
	}
	wi := l.wordBase + uint64(w)
	cur := e.words[wi]
	changed := mask & cur
	if changed == 0 {
		return
	}
	// A plain file keeps no digest and no journal (a journal makes it
	// hashed), so the fold and the touch run only while hashed.
	if f := e.file; f.hashed {
		base := e.bitBase + uint64(w)<<6
		d := f.digest
		for m := changed; m != 0; m &= m - 1 {
			b := uint64(bits.TrailingZeros64(m))
			d ^= mix(base+b, 1) ^ mix(base+b, 0)
		}
		f.digest = d
		if f.jOn {
			f.touch(wi)
		}
	}
	e.words[wi] = cur &^ mask
}
