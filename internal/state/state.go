// Package state implements the bit-accurate storage substrate of the
// pipeline model. Every microarchitectural state element — every pipeline
// latch and every RAM cell — lives in a File as an Elem, making the whole
// machine's state:
//
//   - enumerable: fault injection picks a uniformly random eligible bit,
//     exactly as the paper's campaigns do;
//   - mutable at bit granularity: the fault model is a single bit flip of a
//     state element;
//   - comparable in O(1): the File maintains a position-keyed XOR digest
//     that is a pure function of current contents, so the paper's
//     "ENTIRE microarchitectural state match" check against the golden run
//     costs one word compare per cycle.
//
// Elements carry the paper's Table 1 taxonomy (kind: latch vs RAM; category:
// addr, archrat, data, pc, ...) so campaign results can be broken down by
// logic block, and an injectable flag so cache/predictor arrays can be
// modeled for timing yet excluded from injection, as in the paper.
package state

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind distinguishes pipeline latches from RAM arrays (the paper's two
// fault-injection populations).
type Kind uint8

// Element kinds.
const (
	KindLatch Kind = iota + 1
	KindRAM
)

func (k Kind) String() string {
	switch k {
	case KindLatch:
		return "latch"
	case KindRAM:
		return "ram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Category is the logic-block taxonomy of Table 1 (plus the two categories
// the protection mechanisms introduce in Section 4).
type Category uint8

// State categories.
const (
	CatAddr Category = iota + 1
	CatArchFreeList
	CatArchRAT
	CatCtrl
	CatData
	CatInsn
	CatPC
	CatQCtrl
	CatRegFile
	CatRegPtr
	CatROBPtr
	CatSpecFreeList
	CatSpecRAT
	CatValid
	CatECC    // protection: ECC check bits
	CatParity // protection: instruction-word parity bits
	NumCategories
)

var catNames = [NumCategories]string{
	CatAddr:         "addr",
	CatArchFreeList: "archfreelist",
	CatArchRAT:      "archrat",
	CatCtrl:         "ctrl",
	CatData:         "data",
	CatInsn:         "insn",
	CatPC:           "pc",
	CatQCtrl:        "qctrl",
	CatRegFile:      "regfile",
	CatRegPtr:       "regptr",
	CatROBPtr:       "robptr",
	CatSpecFreeList: "specfreelist",
	CatSpecRAT:      "specrat",
	CatValid:        "valid",
	CatECC:          "ecc",
	CatParity:       "parity",
}

func (c Category) String() string {
	if int(c) < len(catNames) && catNames[c] != "" {
		return catNames[c]
	}
	return fmt.Sprintf("cat(%d)", uint8(c))
}

// Categories lists all injectable categories in display order.
func Categories() []Category {
	cats := make([]Category, 0, NumCategories-1)
	for c := Category(1); c < NumCategories; c++ {
		cats = append(cats, c)
	}
	return cats
}

// Elem is one named state element: an array of entries, each width bits
// (width <= 64). A single latch is an Elem with entries == 1. Rows of every
// width share one access path: a shift and a mask within one backing word,
// or two words for a row that straddles a word boundary (see strSh).
type Elem struct {
	// Hot-path fields, grouped so Get/Set touch one cache line: words
	// aliases the file's backing storage (set at Freeze, never reallocated),
	// and strSh is the largest in-word shift at which a row still fits in a
	// single word (64 - width) — a row straddles two words iff its shift
	// exceeds strSh, so widths that divide 64 never take the two-word path.
	// trace is nil except while a sweep is attached, keeping the common
	// case a single predictable branch.
	words    []uint64
	trace    *Sweep
	bitBase  uint64 // global bit offset of entry 0 (digest keying)
	wordBase uint64 // bitBase >> 6 (elements are word-aligned at Freeze)
	mask     uint64
	strSh    uint64
	stride   uint64 // width, pre-widened for row address arithmetic
	fastLim  uint64 // strSh+1 while untraced, 0 while traced (forces getSlow)
	setLim   uint64 // strSh+1 while the file is plain, 0 while hashed (forces put)
	width    int

	name       string
	kind       Kind
	cat        Category
	entries    int
	injectable bool

	file      *File
	injBase   uint64 // cumulative injectable-bit index (if injectable)
	entryBase uint64 // cumulative entry index over all elements (trace key)
}

// Name returns the element's name.
func (e *Elem) Name() string { return e.name }

// Kind returns latch or RAM.
func (e *Elem) Kind() Kind { return e.kind }

// Category returns the element's Table 1 category.
func (e *Elem) Category() Category { return e.cat }

// Entries returns the number of rows.
func (e *Elem) Entries() int { return e.entries }

// Width returns the bit width of one row.
func (e *Elem) Width() int { return e.width }

// Bits returns the total number of bits in the element.
func (e *Elem) Bits() int { return e.entries * e.width }

// Injectable reports whether the element participates in fault injection.
func (e *Elem) Injectable() bool { return e.injectable }

// EntryIndex returns the trace key of entry i: the element's cumulative
// entry offset plus i. Keys cover every element of a frozen file —
// injectable or not — so touch traces and the convergence certificate can
// reason about cache/predictor state alongside the injectable population.
func (e *Elem) EntryIndex(i int) uint64 { return e.entryBase + uint64(i) }

// Get reads entry i. The untraced read of a row that fits one word is one
// compare and a shift-and-mask; traced reads and straddling rows take the
// outlined slow path. Get itself exceeds the compiler's inline budget (see
// DESIGN.md "Row accessors: two compares").
func (e *Elem) Get(i int) uint64 {
	bit := e.bitBase + uint64(i)*e.stride
	if bit&63 >= e.fastLim {
		return e.getSlow(i)
	}
	return e.words[bit>>6] >> (bit & 63) & e.mask
}

// getSlow is Get's outlined cold path: touch-trace stamping and the
// two-word read for rows that cross a word boundary. fastLim folds both
// triggers into the one unsigned compare in Get: it holds strSh+1 while no
// sweep is attached (slow path iff the row straddles) and 0 while one is
// (every shift reaches it, so every read stamps the sweep).
func (e *Elem) getSlow(i int) uint64 {
	if s := e.trace; s != nil {
		if g := e.entryBase + uint64(i); !s.read(g) {
			s.observe(g, ^uint64(0), true)
		}
	}
	return e.getFrom(e.words, i)
}

// GetObs reads entry i exactly like Get, but narrows what an attached sweep
// records the read as having observed. obs receives the row's value
// and must return the mask of bits whose individual flip could change the
// caller's use of that value (e.g. an equality compare observes every bit
// when it matches, but only the single differing bit when it misses by
// one). While no sweep is attached the closure is never invoked and GetObs
// is bit-identical to Get; under a sweep the read stamps FirstRead/LastRead
// exactly like Get and accumulates the observation mask into the trace's
// pre-overwrite observation set (ObsPre) instead of marking the whole row
// observed. Callers are part of the prover's trusted base: obs must be
// sound (over-approximate), or the constprop proof rule built on ObsPre
// would claim benign flips that in fact diverge.
func (e *Elem) GetObs(i int, obs func(uint64) uint64) uint64 {
	v := e.getFrom(e.words, i)
	if e.trace != nil {
		e.trace.observe(e.entryBase+uint64(i), obs(v)&e.mask, false)
	}
	return v
}

// Set writes entry i (value truncated to the element width). While the file
// is plain (see File.Digest) a row that fits one word is one compare and a
// masked store: there is no digest to fold, no journal to log and no sweep
// to stamp. Otherwise Set stamps an attached sweep, then put folds the
// digest and — while a journal is active — logs the first touch of each
// dirtied word so RollbackTo can rewind in O(words touched). setLim folds
// the mode into the one unsigned compare, as fastLim does for Get.
func (e *Elem) Set(i int, v uint64) {
	bit := e.bitBase + uint64(i)*e.stride
	if sh := bit & 63; sh < e.setLim {
		w := bit >> 6
		//pipelint:words-ok plain file: no digest, journal or trace to keep; syncMode re-derives the digest
		e.words[w] = e.words[w]&^(e.mask<<sh) | (v&e.mask)<<sh
		return
	}
	// A sweep records the set BEFORE the no-op check: a golden write
	// of an unchanged value is still a write the trial performs over its
	// (possibly corrupted) copy, so it clears the corruption all the same.
	if s := e.trace; s != nil {
		if g := e.entryBase + uint64(i); !s.set(g) {
			s.logSet(g)
		}
	}
	e.put(bit, v)
}

// put is Set without the touch-trace hook: the raw write path shared by
// behavioral writes and CopyEntry's data movement. bit is the row's global
// bit offset, which Set has already computed. One in-word store serves
// every width (width 64 is shift 0 under a full mask); a row that crosses
// a word boundary takes setStraddle.
func (e *Elem) put(bit, v uint64) {
	v &= e.mask
	sh := bit & 63
	if sh <= e.strSh {
		w := bit >> 6
		cur := e.words[w]
		old := cur >> sh & e.mask
		if old == v {
			return
		}
		f := e.file
		f.digest ^= mix(bit, old) ^ mix(bit, v)
		if f.jOn {
			f.touch(w)
		}
		e.words[w] = cur&^(e.mask<<sh) | v<<sh
		return
	}
	e.setStraddle(bit, v)
}

// setStraddle is the two-word Set path for rows that cross a word
// boundary. Set's plain fast path covers only rows that fit one word, so
// straddling rows reach it plain too.
func (e *Elem) setStraddle(bit, v uint64) {
	w := bit >> 6
	sh := bit & 63
	rem := 64 - sh
	words := e.words
	old := (words[w]>>sh | words[w+1]<<rem) & e.mask
	if old == v {
		return
	}
	// A plain file keeps no digest and no journal (a journal makes it
	// hashed), so the fold and the touches run only while hashed.
	if f := e.file; f.hashed {
		f.digest ^= mix(bit, old) ^ mix(bit, v)
		if f.jOn {
			f.touch(w)
			f.touch(w + 1)
		}
	}
	words[w] = words[w]&^(e.mask<<sh) | v<<sh
	words[w+1] = words[w+1]&^(e.mask>>rem) | v>>rem
}

// GetBit reads a single bit of entry i.
func (e *Elem) GetBit(i, bit int) bool {
	return e.Get(i)>>uint(bit)&1 == 1
}

// SetBool writes a 1-bit entry.
func (e *Elem) SetBool(i int, v bool) {
	var b uint64
	if v {
		b = 1
	}
	e.Set(i, b)
}

// Bool reads a 1-bit entry.
func (e *Elem) Bool(i int) bool { return e.Get(i) != 0 }

// Flip inverts one bit of entry i. Flip is the injection entry point and
// only runs once per trial, so unlike Set/Get it can afford a lifecycle
// check: flipping before Freeze would index storage that does not exist
// yet, and the explicit panic beats the bounds trap it would otherwise hit.
func (e *Elem) Flip(i, bit int) {
	if !e.file.frozen {
		panic("state: Flip on unfrozen file: " + e.name)
	}
	e.Set(i, e.Get(i)^uint64(1)<<uint(bit))
}

// CopyEntry copies entry si of src into entry di of dst as pure data
// movement. The transfer updates the file digest and undo journal exactly
// like Get followed by Set, but an attached sweep records it as a copy
// instead of a behavioral read-write pair: first touches land on both ends
// (a copy propagates src corruption and overwrites dst corruption, so
// dead-on-arrival and taint reasoning see a read and a write at the same
// cycles as before), while the behavioral last-touch stamps are left alone
// and the src→dst edge plus the dst's last copy cycle are recorded instead.
// The convergence certificate chases those edges to bound where a frozen
// trial-vs-golden delta can flow: a recovery drain that wholesale-copies
// architectural state over speculative state rewrites entries without
// observing them, and last-touch stamps from those rewrites would otherwise
// block every certificate involving the drained elements. While the file
// is plain the copy is a plain Set. Both elements must belong to the same
// file.
func CopyEntry(dst *Elem, di int, src *Elem, si int) {
	if dst.file != src.file {
		panic("state: CopyEntry across files: " + src.name + " -> " + dst.name)
	}
	v := src.getFrom(src.words, si)
	if !dst.file.hashed {
		// A plain file has no digest, journal or sweep to keep (a sweep
		// makes it hashed), so the copy is a plain Set.
		dst.Set(di, v)
		return
	}
	if dst.trace != nil {
		dst.trace.copy(src.entryBase+uint64(si), dst.entryBase+uint64(di))
	}
	dst.put(dst.bitBase+uint64(di)*dst.stride, v)
}

// mix hashes a (position, value) pair; the file digest is the XOR of mix
// over every entry, making it a pure function of current state.
func mix(key, val uint64) uint64 {
	x := key*0x9E3779B97F4A7C15 ^ val
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// File is the complete state of one machine instance.
type File struct {
	elems  []*Elem
	byName map[string]*Elem
	words  []uint64
	digest uint64 // exact only while hashed
	frozen bool

	// hashed is set while the digest has a consumer: an active journal
	// (jOn) or an attached sweep (tr). A file that is not hashed is plain;
	// see Digest.
	hashed bool

	zeroDigest uint64

	// tr is the attached sweep; every element's trace points at it while
	// one is attached.
	tr *Sweep

	// patch is RestoreDelta's scratch snapshot.
	patch Snapshot

	injElems   []*Elem  // injectable elements, in registration order
	injBits    uint64   // total injectable bits (latches + RAMs)
	allEntries uint64   // total entries over all elements (trace key space)
	injCum     []uint64 // injCum[i] = injectable bits in injElems[:i]; len+1 entries
	latchElems []*Elem
	latchBits  uint64   // total injectable latch bits
	latchCum   []uint64 // latchCum[i] = injectable bits in latchElems[:i]; len+1 entries

	// First-touch undo journal (Mark/RollbackTo). jLog records the
	// pre-image of every word dirtied since the most recent Mark; jStamp
	// holds, per word, the epoch of its last log entry, so repeat writes to
	// a word cost one compare instead of one append. The epoch advances on
	// every Mark, RollbackTo and CommitJournal, which is what makes stale
	// stamps harmless without ever clearing the stamp array.
	jLog   []jEntry
	jStamp []uint64
	jEpoch uint64
	jOn    bool
}

// jEntry is one journal record: the pre-image of a dirtied word.
type jEntry struct {
	word uint64
	old  uint64
}

// touch logs word w's current value if this is its first touch since the
// last Mark.
func (f *File) touch(w uint64) {
	if f.jStamp[w] != f.jEpoch {
		f.jStamp[w] = f.jEpoch
		f.jLog = append(f.jLog, jEntry{word: w, old: f.words[w]})
	}
}

// New returns an empty, unfrozen state file.
func New() *File {
	return &File{byName: make(map[string]*Elem)}
}

// Option configures an element at registration.
type Option func(*Elem)

// NotInjectable marks an element as excluded from fault injection (cache
// data/tag arrays and predictor state, per the paper's methodology).
func NotInjectable() Option {
	return func(e *Elem) { e.injectable = false }
}

// Latch registers a latch-kind element.
func (f *File) Latch(name string, cat Category, entries, width int, opts ...Option) *Elem {
	return f.add(name, KindLatch, cat, entries, width, opts)
}

// RAM registers a RAM-kind element.
func (f *File) RAM(name string, cat Category, entries, width int, opts ...Option) *Elem {
	return f.add(name, KindRAM, cat, entries, width, opts)
}

func (f *File) add(name string, kind Kind, cat Category, entries, width int, opts []Option) *Elem {
	if f.frozen {
		panic("state: element registered after Freeze: " + name)
	}
	if entries <= 0 || width <= 0 || width > 64 {
		panic(fmt.Sprintf("state: bad element geometry %s: %dx%d", name, entries, width))
	}
	if _, dup := f.byName[name]; dup {
		panic("state: duplicate element " + name)
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = uint64(1)<<uint(width) - 1
	}
	e := &Elem{
		name: name, kind: kind, cat: cat,
		entries: entries, width: width, mask: mask,
		strSh:      uint64(64 - width),
		stride:     uint64(width),
		fastLim:    uint64(65 - width),
		setLim:     uint64(65 - width),
		injectable: true, file: f,
	}
	for _, opt := range opts {
		opt(e)
	}
	f.elems = append(f.elems, e)
	f.byName[name] = e
	return e
}

// Freeze lays out storage. No elements may be registered afterwards.
func (f *File) Freeze() {
	if f.frozen {
		return
	}
	f.frozen = true
	var bit uint64
	for _, e := range f.elems {
		e.bitBase = bit
		e.wordBase = bit >> 6
		bit += uint64(e.entries * e.width)
		bit = (bit + 63) &^ 63 // word-align each element
		e.entryBase = f.allEntries
		f.allEntries += uint64(e.entries)
		if e.injectable {
			e.injBase = f.injBits
			f.injBits += uint64(e.Bits())
			f.injElems = append(f.injElems, e)
			if e.kind == KindLatch {
				f.latchBits += uint64(e.Bits())
				f.latchElems = append(f.latchElems, e)
			}
		}
	}
	f.words = make([]uint64, bit>>6)
	for _, e := range f.elems {
		e.words = f.words
	}
	// Cumulative injectable-bit offsets per population, so RandomBit's
	// binary search probes are O(1) instead of an O(n) sum (the latch
	// population is not contiguous in injBase space).
	f.injCum = make([]uint64, len(f.injElems)+1)
	for i, e := range f.injElems {
		f.injCum[i+1] = f.injCum[i] + uint64(e.Bits())
	}
	f.latchCum = make([]uint64, len(f.latchElems)+1)
	for i, e := range f.latchElems {
		f.latchCum[i+1] = f.latchCum[i] + uint64(e.Bits())
	}
	f.zeroDigest = f.RecomputeDigest()
}

// Elem returns the named element, or nil.
func (f *File) Elem(name string) *Elem { return f.byName[name] }

// Elems returns all elements in registration order.
func (f *File) Elems() []*Elem { return f.elems }

// Digest returns the whole-machine state digest: the XOR of mix over every
// entry. The file keeps it incrementally only while something compares it
// — while a journal is active or a sweep is attached — and is otherwise
// plain: Set stores raw and Digest folds the value from scratch, O(state)
// per call. Every transition out of plain recomputes the digest, so in
// either mode Digest equals RecomputeDigest.
func (f *File) Digest() uint64 {
	if !f.hashed {
		return f.RecomputeDigest()
	}
	return f.digest
}

// syncMode switches the file between plain and hashed after a change in
// what consumes the digest. Entering hashed mode recomputes the digest
// from scratch, in O(state), since plain Sets left it stale; the switch
// is paid per journal or sweep attachment, never per access.
func (f *File) syncMode() {
	hashed := f.jOn || f.tr != nil
	if hashed == f.hashed {
		return
	}
	if hashed {
		f.digest = f.RecomputeDigest()
	}
	f.hashed = hashed
	for _, e := range f.elems {
		e.setLim = 0
		if !hashed {
			e.setLim = e.strSh + 1
		}
	}
}

// InjectableBits returns the number of injectable bits, optionally
// restricted to latches.
func (f *File) InjectableBits(latchOnly bool) uint64 {
	if latchOnly {
		return f.latchBits
	}
	return f.injBits
}

// BitRef identifies one injectable bit.
type BitRef struct {
	Elem  *Elem
	Entry int
	Bit   int
}

// String renders the bit reference for logs.
func (b BitRef) String() string {
	return fmt.Sprintf("%s[%d].%d", b.Elem.name, b.Entry, b.Bit)
}

// Flip inverts the referenced bit.
func (b BitRef) Flip() { b.Elem.Flip(b.Entry, b.Bit) }

// RandomBit picks a uniformly random injectable bit. If latchOnly is true
// the population is restricted to latch-kind elements, mirroring the
// paper's latch-only campaigns.
func (f *File) RandomBit(rng *rand.Rand, latchOnly bool) BitRef {
	if !f.frozen {
		panic("state: RandomBit before Freeze; the injectable population is not laid out yet")
	}
	pop, cum := f.injElems, f.injCum
	total := f.injBits
	if latchOnly {
		pop, cum, total = f.latchElems, f.latchCum, f.latchBits
	}
	if total == 0 {
		panic("state: no injectable bits")
	}
	n := uint64(rng.Int63n(int64(total)))
	// Binary search over the cumulative offsets precomputed at Freeze. For
	// the full population cum[i] coincides with pop[i].injBase (the
	// contiguous layout); the latch population needs its own table.
	idx := sort.Search(len(pop), func(i int) bool {
		return cum[i+1] > n
	})
	e := pop[idx]
	off := n - cum[idx]
	return BitRef{Elem: e, Entry: int(off) / e.width, Bit: int(off) % e.width}
}

// Mark is a rewind point in the File's undo journal: the journal position
// and the digest at the time the mark was taken. Marks obey stack
// discipline — rolling back to an outer mark invalidates the inner ones.
type Mark struct {
	pos    int
	digest uint64
}

// BeginJournal starts (or restarts) first-touch undo journaling. While the
// journal is active, every Set that dirties a word for the first time since
// the most recent Mark logs the word's pre-image, making RollbackTo
// O(words touched) instead of O(machine state). The stamp array is lazily
// allocated on first use and reused for the life of the File.
func (f *File) BeginJournal() {
	if !f.frozen {
		panic("state: BeginJournal before Freeze")
	}
	if f.jStamp == nil {
		f.jStamp = make([]uint64, len(f.words))
	}
	f.jOn = true
	f.jEpoch++
	f.syncMode()
}

// Journaling reports whether an undo journal is active.
func (f *File) Journaling() bool { return f.jOn }

// Mark returns a rewind point for RollbackTo. The epoch bump makes every
// word eligible for (re-)logging, so writes after the mark are undoable
// even if they hit words already logged under an enclosing mark.
func (f *File) Mark() Mark {
	if !f.jOn {
		panic("state: Mark without BeginJournal")
	}
	f.jEpoch++
	return Mark{pos: len(f.jLog), digest: f.digest}
}

// RollbackTo replays the journal in reverse down to the given mark,
// restoring the exact word contents and the digest saved at Mark time.
func (f *File) RollbackTo(m Mark) {
	if !f.jOn {
		panic("state: RollbackTo without BeginJournal")
	}
	log := f.jLog
	if m.pos > len(log) {
		panic("state: RollbackTo past the journal end (stale mark)")
	}
	for i := len(log) - 1; i >= m.pos; i-- {
		f.words[log[i].word] = log[i].old
	}
	f.jLog = log[:m.pos]
	f.digest = m.digest
	// Invalidate stamps from the rolled-back region: without the bump, a
	// later write to a word logged inside that region would be skipped and
	// an enclosing mark could no longer rewind it.
	f.jEpoch++
}

// CommitJournal discards the journal without rewinding and stops logging.
// The log's capacity is retained for the next BeginJournal.
func (f *File) CommitJournal() {
	f.jLog = f.jLog[:0]
	f.jOn = false
	f.jEpoch++
	f.syncMode()
}

// JournalLen returns the current number of logged word pre-images (for
// tests and instrumentation).
func (f *File) JournalLen() int { return len(f.jLog) }

// StartTrace attaches s to every element so subsequent Get/Set calls stamp
// touches into it. Non-injectable elements (caches, predictors) are traced
// too: the convergence certificate must know the golden run's future
// touches of *any* state an injected trial could differ in, not just the
// injectable population. Call TraceCycle with a cycle number >= 1 before
// stepping (cycle 0 means "never touched"); while windows are open it must
// advance one cycle at a time.
func (f *File) StartTrace(s *Sweep) {
	if !f.frozen {
		panic("state: StartTrace before Freeze")
	}
	f.tr = s
	for _, e := range f.elems {
		e.trace = s
		e.fastLim = 0
	}
	f.syncMode()
}

// NewTouchTrace is NewSweep under the name the bench's traced-step probe
// (bench/layers.go) calls; the bench change that replaces that probe with a
// sweep over the schedule (ROADMAP item 2(a)) deletes it.
func (f *File) NewTouchTrace() *Sweep { return f.NewSweep() }

// TraceCycle sets the cycle number stamped on touches until the next call.
// Cycle numbers must be >= 1 and fit the sweep's uint32 stamps.
func (f *File) TraceCycle(c uint64) {
	if f.tr == nil {
		panic("state: TraceCycle without StartTrace")
	}
	if c > math.MaxUint32 {
		panic(fmt.Sprintf("state: TraceCycle %d overflows the trace's uint32 cycle stamps", c))
	}
	f.tr.setCycle(uint32(c))
}

// StopTrace detaches the attached sweep, restoring the zero-cost Get/Set
// paths.
func (f *File) StopTrace() {
	for _, e := range f.elems {
		e.trace = nil
		e.fastLim = e.strSh + 1
	}
	f.tr = nil
	f.syncMode()
}

// RecomputeDigest folds the digest from scratch over current contents, in
// O(state). It is the one fold: Freeze takes the all-zero digest from it,
// every switch into hashed mode re-seeds the incremental digest with it,
// Digest returns it while the file is plain, and tests hold the
// incremental digest against it. It reads the words directly, so an
// attached sweep records no touches.
func (f *File) RecomputeDigest() uint64 {
	var d uint64
	for _, e := range f.elems {
		for i := 0; i < e.entries; i++ {
			d ^= mix(e.bitBase+uint64(i)*uint64(e.width), e.getFrom(f.words, i))
		}
	}
	return d
}

// Snapshot is a copy of a File's contents.
type Snapshot struct {
	words  []uint64
	digest uint64
}

// Snapshot captures the current contents.
func (f *File) Snapshot() *Snapshot {
	s := &Snapshot{}
	f.SnapshotInto(s)
	return s
}

// SnapshotInto captures the current contents into s, reusing its storage.
// The snapshot carries the exact digest (folded from scratch if the file is
// plain), so restoring it into a hashed file needs no recompute.
func (f *File) SnapshotInto(s *Snapshot) {
	s.words = append(s.words[:0], f.words...)
	s.digest = f.Digest()
}

// A Delta is a File's contents recorded against a base Snapshot of the same
// layout: only the words that differ from the base, plus the digest. A
// golden run's keyframes differ from its checkpoint state in a small
// fraction of the file, so deltas keep them an order of magnitude smaller
// than full snapshots.
type Delta struct {
	idx    []uint32
	val    []uint64
	digest uint64
}

// DeltaInto records the current contents into d as a delta against base,
// reusing d's storage. Like SnapshotInto, it records the exact digest.
// Storage that is too small is replaced once, sized to the delta with an
// eighth to spare, so a delta reused across a run grows rarely.
func (f *File) DeltaInto(d *Delta, base *Snapshot) {
	if len(base.words) != len(f.words) {
		panic("state: DeltaInto base layout mismatch")
	}
	n := 0
	for i, w := range f.words {
		if w != base.words[i] {
			n++
		}
	}
	if cap(d.idx) < n {
		d.idx, d.val = make([]uint32, 0, n+n/8), make([]uint64, 0, n+n/8)
	}
	d.idx, d.val = d.idx[:0], d.val[:0]
	for i, w := range f.words {
		if w != base.words[i] {
			d.idx = append(d.idx, uint32(i))
			d.val = append(d.val, w)
		}
	}
	d.digest = f.Digest()
}

// PatchInto sets dst to base with d applied — the contents d was recorded
// from — reusing dst's storage. base must be the snapshot d was recorded
// against.
func (d *Delta) PatchInto(dst, base *Snapshot) {
	dst.words = append(dst.words[:0], base.words...)
	for k, i := range d.idx {
		dst.words[i] = d.val[k]
	}
	dst.digest = d.digest
}

// getFrom extracts entry i's value from a word array with the file's frozen
// layout: the file's own words or a Snapshot's. It is the one row extract,
// shift-and-mask within a word plus the second word of a straddling row.
func (e *Elem) getFrom(words []uint64, i int) uint64 {
	bit := e.bitBase + uint64(i)*uint64(e.width)
	sh := bit & 63
	v := words[bit>>6] >> sh
	if sh > e.strSh {
		v |= words[bit>>6+1] << (64 - sh)
	}
	return v & e.mask
}

// DiffEntries compares the file's current contents against a snapshot taken
// on the same layout and calls visit with the EntryIndex key of every entry
// whose value differs, in layout order. If visit returns false the scan
// aborts and DiffEntries returns false; it returns true once every
// differing entry has been visited and accepted. The scan is word-granular
// (elements are word-aligned), so the common all-equal region costs one
// compare per 64 bits; only elements containing a differing word are
// re-walked per entry.
func (f *File) DiffEntries(s *Snapshot, visit func(key uint64) bool) bool {
	if len(s.words) != len(f.words) {
		panic("state: DiffEntries snapshot layout mismatch")
	}
	words, snap := f.words, s.words
	for _, e := range f.elems {
		lo := e.bitBase >> 6
		hi := (e.bitBase + uint64(e.entries*e.width) + 63) >> 6
		differs := false
		for w := lo; w < hi; w++ {
			if words[w] != snap[w] {
				differs = true
				break
			}
		}
		if !differs {
			continue
		}
		for i := 0; i < e.entries; i++ {
			if e.getFrom(words, i) != e.getFrom(snap, i) {
				if !visit(e.entryBase + uint64(i)) {
					return false
				}
			}
		}
	}
	return true
}

// Restore overwrites the file contents from a snapshot taken on a file with
// the same layout. A whole-state overwrite would invalidate every journal
// pre-image, so restoring with an active journal is a lifecycle bug.
func (f *File) Restore(s *Snapshot) {
	if f.jOn {
		panic("state: Restore while a journal is active; CommitJournal or RollbackTo first")
	}
	if len(s.words) != len(f.words) {
		panic("state: snapshot layout mismatch")
	}
	copy(f.words, s.words)
	f.digest = s.digest
}

// RestoreDelta overwrites the file contents with base patched by d: the
// contents d was recorded from. Like Restore, it must not run while a
// journal is active.
func (f *File) RestoreDelta(d *Delta, base *Snapshot) {
	d.PatchInto(&f.patch, base)
	f.Restore(&f.patch)
}

// Reset zeroes all state.
func (f *File) Reset() {
	if f.jOn {
		panic("state: Reset while a journal is active; CommitJournal or RollbackTo first")
	}
	for i := range f.words {
		f.words[i] = 0
	}
	f.digest = f.zeroDigest
}

// Equal reports deep equality of contents (for tests; production comparison
// uses Digest).
func (f *File) Equal(o *File) bool {
	if len(f.words) != len(o.words) {
		return false
	}
	for i, w := range f.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}

// CategoryBits tallies bits by (category, kind) over injectable elements:
// the data behind the paper's Table 1.
func (f *File) CategoryBits() map[Category]struct{ Latch, RAM int } {
	out := make(map[Category]struct{ Latch, RAM int })
	for _, e := range f.injElems {
		c := out[e.cat]
		if e.kind == KindLatch {
			c.Latch += e.Bits()
		} else {
			c.RAM += e.Bits()
		}
		out[e.cat] = c
	}
	return out
}
