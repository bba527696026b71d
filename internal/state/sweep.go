package state

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// A Sweep records the touch traces of many overlapping windows of one
// fault-free run in a single pass; it is the only recorder an element
// carries (File.StartTrace). A window opens at cycle start, before the
// cycle start+1 is stepped, and closes after its last cycle; its view (a
// WindowTrace) holds the window's touch trace, with stamps relative to
// start, exactly as if the window's cycles were the whole run. Every cycle
// is stepped, and every access stamped, once, however many windows cover
// it.
//
// Last touches need no per-window state: one record per entry keeps the
// absolute cycles of its last read, write, copy-in and whole-row read, and
// a window reads them when it closes (a stamp after start lies inside
// it). The copy edge is exact the same way: a copy source's last copy-out,
// its destination, and its last copy-out to a different destination tell
// whether the window's copies went to one destination or to several.
//
// First touches differ per window. An access can be some open window's
// first only if the entry's previous access of that kind precedes the
// newest open window's start; otherwise every open window has seen one
// already. That epoch test is the whole common path. The rare access that
// passes it goes into a log of first-touch candidates, which a closing
// window scans from the position at which it opened. The observation mask
// (ObsPre) takes the same route: a read while the entry still holds its
// pre-window value is logged unless a whole-row read since the newest
// window start already observed every bit. The log keeps only what the
// open windows can still see: one word per access, and one word per cycle
// marking where the cycle's accesses begin. It is held in fixed-size
// chunks that the sweep takes back as windows close and reuses, so a
// sweep allocates its log once, at the most any run of open windows holds.
type Sweep struct {
	recs   []sweepTouch
	copies map[uint32]*copyEdge // copy sources' edges, by key
	cycle  uint32
	next   uint32      // the cycle the open windows stamp next
	newest uint32      // start of the newest open window
	wins   []sweepWin  // open windows, oldest first
	log    []*logChunk // first-touch candidates and cycle marks, oldest first
	spare  []*logChunk // chunks the log has released
	logPos int         // log position of log[0][0]
	logEnd int         // log position of the next word
	slot   []uint32    // CloseWindow scratch: key -> index+1 in the view
	n      int         // entries (the trace key space)
}

// logChunkBits sizes the log's chunks: 4096 words.
const logChunkBits = 12

// A logChunk is one chunk of a sweep's log.
type logChunk [1 << logChunkBits]uint32

// sweepTouch is one entry's absolute last-touch record.
type sweepTouch struct {
	lastRead, lastSet, lastCopy uint32 // behavioral read, behavioral write, copy-in
	// lastFull is the last read observing the whole row: a plain read or
	// a copy-out. With lastRead it dates the last read of any kind.
	lastFull uint32
}

// copyEdge is a copy source's edge record.
type copyEdge struct {
	lastOut  uint32 // last copy-out
	lastDiff uint32 // last copy-out to a destination other than dst
	dst      uint32 // destination key of the last copy-out
}

// sweepWin is an open window: its start cycle and the log position at
// which it opened.
type sweepWin struct {
	start uint32
	pos   int
}

// Log word kinds. A partial observation is followed by two words holding
// its mask. A word with no kind bits marks the start of a cycle.
const (
	evRead = 1 << 28 // a read or copy-out: a first-read candidate
	evSet  = 2 << 28 // a write or copy-in: a first-write candidate
	evFull = 4 << 28 // a whole-row observation of the pre-window value
	evMask = 8 << 28 // a partial observation
	evKey  = 1<<28 - 1
)

// NewSweep allocates a sweep over the file's full entry population.
func (f *File) NewSweep() *Sweep {
	if !f.frozen {
		panic("state: NewSweep before Freeze")
	}
	if f.allEntries > evKey {
		panic(fmt.Sprintf("state: %d entries overflow the sweep's log keys", f.allEntries))
	}
	n := int(f.allEntries)
	return &Sweep{recs: make([]sweepTouch, n), copies: make(map[uint32]*copyEdge), slot: make([]uint32, n), n: n}
}

// setCycle is TraceCycle for the sweep: while a window is open it marks
// where cycle c's log entries begin.
func (s *Sweep) setCycle(c uint32) {
	if len(s.wins) > 0 {
		if c != s.next {
			panic(fmt.Sprintf("state: sweep cycle %d does not follow %d", c, s.next-1))
		}
		s.push(0)
		s.next = c + 1
	}
	s.cycle = c
}

// OpenWindow opens a window at cycle start: the next stamped cycle is its
// first. Windows open in non-decreasing start order, at or after the last
// stamped cycle.
func (s *Sweep) OpenWindow(start uint64) {
	if start > math.MaxUint32 || uint32(start) < s.newest || uint32(start) < s.cycle {
		panic(fmt.Sprintf("state: OpenWindow(%d) out of order (newest %d, cycle %d)", start, s.newest, s.cycle))
	}
	if len(s.wins) == 0 {
		s.clearLog()
		s.next = uint32(start) + 1
	}
	s.wins = append(s.wins, sweepWin{start: uint32(start), pos: s.logEnd})
	s.newest = uint32(start)
}

// push appends one word to the log.
func (s *Sweep) push(w uint32) {
	i := s.logEnd - s.logPos
	if i == len(s.log)<<logChunkBits {
		s.addChunk()
	}
	s.log[i>>logChunkBits][i&(1<<logChunkBits-1)] = w
	s.logEnd++
}

// addChunk appends a chunk to the log, a released one if there is one.
func (s *Sweep) addChunk() {
	if n := len(s.spare); n > 0 {
		s.log, s.spare = append(s.log, s.spare[n-1]), s.spare[:n-1]
	} else {
		s.log = append(s.log, new(logChunk))
	}
}

// word returns the log word at position p.
func (s *Sweep) word(p int) uint32 {
	i := p - s.logPos
	return s.log[i>>logChunkBits][i&(1<<logChunkBits-1)]
}

// clearLog releases every log chunk.
func (s *Sweep) clearLog() {
	s.spare = append(s.spare, s.log...)
	s.log = s.log[:0]
	s.logPos, s.logEnd = 0, 0
}

// Open returns the number of open windows.
func (s *Sweep) Open() int { return len(s.wins) }

// CloseWindow closes the oldest open window and writes its view into dst,
// reusing dst's storage. The window's last cycle must be the last stamped
// one.
func (s *Sweep) CloseWindow(dst *WindowTrace) {
	w := s.wins[0]
	s.wins = append(s.wins[:0], s.wins[1:]...)
	c := w.start
	dst.n = s.n

	// The view holds one record per key the window's log names: count them,
	// numbering each key's slot, and size the view once.
	n := 0
	for p := w.pos; p < s.logEnd; p++ {
		e := s.word(p)
		if k := e & evKey; e&^evKey != 0 && s.slot[k] == 0 {
			n++
			s.slot[k] = uint32(n)
		}
		if e&evMask != 0 {
			p += 2
		}
	}
	if cap(dst.recs) < n {
		// Headroom, so a reused view rarely grows again.
		dst.keys, dst.recs = make([]uint32, n, n+n/8), make([]touch, n, n+n/8)
	}
	dst.keys, dst.recs = dst.keys[:n], dst.recs[:n]
	clear(dst.recs)

	// rel is the window cycle of the log words being read; an access
	// logged before the window's first cycle mark counts at that cycle.
	rel := uint32(0)
	for p := w.pos; p < s.logEnd; p++ {
		e := s.word(p)
		if e&^evKey == 0 {
			rel++
			continue
		}
		k := e & evKey
		sl := s.slot[k]
		dst.keys[sl-1] = k
		r := &dst.recs[sl-1]
		at := max(rel, 1)
		if e&evRead != 0 && r.firstRead == 0 {
			r.firstRead = at
		}
		if e&evSet != 0 && r.firstSet == 0 {
			r.firstSet = at
		}
		if e&evFull != 0 && r.firstSet == 0 {
			r.obsPre = ^uint64(0)
		}
		if e&evMask != 0 {
			if r.firstSet == 0 {
				r.obsPre |= uint64(s.word(p+1)) | uint64(s.word(p+2))<<32
			}
			p += 2
		}
	}
	rl := func(a uint32) uint32 {
		if a > c {
			return a - c
		}
		return 0
	}
	for i, k := range dst.keys {
		s.slot[k] = 0
		a, r := &s.recs[k], &dst.recs[i]
		r.lastRead, r.lastSet, r.lastCopy = rl(a.lastRead), rl(a.lastSet), rl(a.lastCopy)
		if ce := s.copies[k]; ce != nil {
			switch {
			case ce.lastOut <= c:
			case ce.lastDiff > c:
				r.copyDst = poisonedDst
			default:
				r.copyDst = ce.dst + 1
			}
		}
	}
	sort.Sort(byKey{dst})

	// Release the log chunks no open window can see.
	if len(s.wins) == 0 {
		s.clearLog()
		return
	}
	drop := (s.wins[0].pos - s.logPos) >> logChunkBits
	s.spare = append(s.spare, s.log[:drop]...)
	s.log = s.log[:copy(s.log, s.log[drop:])]
	s.logPos += drop << logChunkBits
}

// byKey sorts a view's records by key.
type byKey struct{ t *WindowTrace }

func (b byKey) Len() int           { return len(b.t.keys) }
func (b byKey) Less(i, j int) bool { return b.t.keys[i] < b.t.keys[j] }
func (b byKey) Swap(i, j int) {
	b.t.keys[i], b.t.keys[j] = b.t.keys[j], b.t.keys[i]
	b.t.recs[i], b.t.recs[j] = b.t.recs[j], b.t.recs[i]
}

// LogLen returns the number of log words held, cycle marks included (for
// tests and instrumentation).
func (s *Sweep) LogLen() int { return s.logEnd - s.logPos }

// read stamps a plain read of entry g. An entry read whole since the
// newest window start is no open window's first read and adds nothing to
// any open window's observation mask: that one compare is the common path,
// small enough to inline into the traced accessors. It reports false,
// stamping nothing, when the read needs the full observe.
func (s *Sweep) read(g uint64) bool {
	r := &s.recs[g]
	if r.lastFull <= s.newest {
		return false
	}
	r.lastRead, r.lastFull = s.cycle, s.cycle
	return true
}

// observe stamps a read of entry g observing mask (full: the whole row, a
// plain read).
func (s *Sweep) observe(g, mask uint64, full bool) {
	r := &s.recs[g]
	t, nw := s.cycle, s.newest
	var kind uint32
	if max(r.lastRead, r.lastFull) <= nw {
		kind = evRead
	}
	if max(r.lastSet, r.lastCopy) <= nw && r.lastFull <= nw {
		if full {
			kind |= evFull
		} else if mask != 0 {
			kind |= evMask
		}
	}
	r.lastRead = t
	if full {
		r.lastFull = t
	}
	if kind != 0 {
		s.push(uint32(g) | kind)
		if kind&evMask != 0 {
			s.push(uint32(mask))
			s.push(uint32(mask >> 32))
		}
	}
}

// set stamps a behavioral write of entry g. An entry written since the
// newest window start is no open window's first write: like read, that
// compare is the common path, small enough to inline into Set. It reports
// false, stamping nothing, when the write must be logged (logSet).
func (s *Sweep) set(g uint64) bool {
	r := &s.recs[g]
	if r.lastSet <= s.newest && r.lastCopy <= s.newest {
		return false
	}
	r.lastSet = s.cycle
	return true
}

// logSet stamps a write of entry g that may be some open window's first.
func (s *Sweep) logSet(g uint64) {
	s.push(uint32(g) | evSet)
	s.recs[g].lastSet = s.cycle
}

// copy stamps CopyEntry data movement: a whole-row copy-out of src (not a
// behavioral read), then a copy-in to dst (not a behavioral write).
func (s *Sweep) copy(src, dst uint64) {
	r := &s.recs[src]
	t, nw := s.cycle, s.newest
	var kind uint32
	if max(r.lastRead, r.lastFull) <= nw {
		kind = evRead
	}
	if max(r.lastSet, r.lastCopy) <= nw && r.lastFull <= nw {
		kind |= evFull
	}
	if kind != 0 {
		s.push(uint32(src) | kind)
	}
	r.lastFull = t
	ce := s.copies[uint32(src)]
	if ce == nil {
		ce = &copyEdge{dst: uint32(dst)}
		s.copies[uint32(src)] = ce
	}
	if uint32(dst) != ce.dst {
		ce.lastDiff, ce.dst = ce.lastOut, uint32(dst)
	}
	ce.lastOut = t
	d := &s.recs[dst]
	if max(d.lastSet, d.lastCopy) <= nw {
		s.push(uint32(dst) | evSet)
	}
	d.lastCopy = t
}

// A WindowTrace is one window's touch trace as a Sweep closed it. It
// records, per entry of every element, the first and last cycle at which
// the golden run reads the entry and the first and last at which it writes
// it (0 = never), relative to the window's start. Entries are keyed by
// Elem.EntryIndex. The trial engine uses the first-touch half to decide,
// in closed form, whether a flipped bit can ever be observed (an entry
// overwritten before its first read is dead on arrival) and the last-touch
// half for the convergence certificate: an entry the golden run never
// touches again cannot cancel or propagate a frozen trial-vs-golden delta.
//
// CopyEntry data movement is traced separately from behavioral touches:
// a copy stamps first touches on both ends but not last touches, and
// instead records the src→dst copy edge (CopyDst, single destination or
// Poisoned) and the destination's last copy-in cycle (LastCopy). The
// certificate follows the edges to reason about recovery drains that
// rewrite state without observing it.
//
// Records are held only for the entries the window touched, sorted by
// key, in 32-byte records; consumers read them through the accessors.
type WindowTrace struct {
	keys []uint32
	recs []touch
	n    int
}

// touch is one entry's record in a window.
type touch struct {
	firstRead, firstSet, lastRead, lastSet uint32
	lastCopy                               uint32 // cycle of the last copy into the entry
	copyDst                                uint32 // 0 = none, dst key+1, or poisonedDst

	// obsPre is the mask of bits the golden run behaviorally observes while
	// the entry still holds its checkpoint value (see ObsPre).
	obsPre uint64
}

// Poisoned is CopyDst's value for an entry copied to more than one
// distinct destination; the convergence certificate treats the entry's
// copy flow as untrackable.
const Poisoned = ^uint64(0)

// poisonedDst is Poisoned in a record's uint32 copyDst slot.
const poisonedDst = ^uint32(0)

// Len returns the number of entries the trace covers (the file's trace key
// space).
func (t *WindowTrace) Len() int { return t.n }

// at returns entry key's record, or a zero record when the window never
// touched it.
func (t *WindowTrace) at(key uint64) *touch {
	if i, ok := slices.BinarySearch(t.keys, uint32(key)); ok {
		return &t.recs[i]
	}
	return &untouched
}

// untouched is the record of an entry a window never touched.
var untouched touch

// FirstRead returns the first cycle the golden run read entry key, or 0.
func (t *WindowTrace) FirstRead(key uint64) uint64 { return uint64(t.at(key).firstRead) }

// FirstSet returns the first cycle the golden run wrote entry key (a
// behavioral write or a copy into it), or 0.
func (t *WindowTrace) FirstSet(key uint64) uint64 { return uint64(t.at(key).firstSet) }

// LastRead returns the last cycle the golden run behaviorally read entry
// key, or 0. Copies out of the entry do not count.
func (t *WindowTrace) LastRead(key uint64) uint64 { return uint64(t.at(key).lastRead) }

// LastSet returns the last cycle the golden run behaviorally wrote entry
// key, or 0. Copies into the entry do not count.
func (t *WindowTrace) LastSet(key uint64) uint64 { return uint64(t.at(key).lastSet) }

// LastCopy returns the last cycle the golden run copied into entry key, or
// 0.
func (t *WindowTrace) LastCopy(key uint64) uint64 { return uint64(t.at(key).lastCopy) }

// CopyDst returns entry key's copy edge: 0 when the golden run never
// copied it, the destination's key+1 when it copied it to one destination,
// or Poisoned when it copied it to more than one.
func (t *WindowTrace) CopyDst(key uint64) uint64 {
	d := t.at(key).copyDst
	if d == poisonedDst {
		return Poisoned
	}
	return uint64(d)
}

// ObsPre is, per entry, the mask of bits the golden run behaviorally
// observes while the entry still holds its checkpoint value — i.e. before
// the entry's first overwrite. A plain Get observes every bit; a GetObs
// read contributes only its observation mask; a CopyEntry observes every
// bit of its source (the copy propagates the full row). Once FirstSet is
// stamped the pre-overwrite value is gone and later reads stop
// accumulating: they observe the recomputed value, which a flip of an
// unobserved bit provably cannot have changed. Accesses within a cycle
// count in execution order. The constprop proof rule flips only bits
// outside ObsPre of entries that are overwritten (and converge) inside the
// horizon.
func (t *WindowTrace) ObsPre(key uint64) uint64 { return t.at(key).obsPre }

// ProvenDead reports whether a flip of any bit of the entry with trace key
// key is provably unobservable within a horizon of h cycles: the golden run
// overwrites the entry (clearing any corruption) strictly before its first
// read, or never reads it at all. matchAt is the cycle of that clearing
// write when it falls inside the horizon (0 otherwise) — the earliest cycle
// at which a corrupted trial can re-converge with the golden run. A read at
// the overwrite cycle itself counts as observation (the reader may consume
// the corrupted value in the same cycle), so the comparison is read <=
// write, conservatively ineligible. This predicate is the single shared
// implementation behind both the trial engine's closed-form classifier
// (worker.resolveDead) and the static prover's liveness rule, so the two
// paths cannot drift.
func (t *WindowTrace) ProvenDead(key, h uint64) (matchAt uint64, dead bool) {
	r := t.at(key)
	if cw := uint64(r.firstSet); cw != 0 && cw <= h {
		matchAt = cw
	}
	readBound := h
	if matchAt != 0 {
		readBound = matchAt
	}
	return matchAt, r.firstRead == 0 || uint64(r.firstRead) > readBound
}
