package state

import (
	"math"
	"math/rand"
	"testing"
)

// window is the one-window recorder the trace tests read through: a fresh
// sweep attached to f with one window open at cycle 0, so the view's
// stamps are the cycles the test names.
type window struct {
	f   *File
	sw  *Sweep
	cyc uint64
}

func openWindow(f *File) *window {
	w := &window{f: f, sw: f.NewSweep()}
	f.StartTrace(w.sw)
	w.sw.OpenWindow(0)
	return w
}

// at stamps every cycle after the last one through c, in order, as the
// sweep requires while a window is open; the accesses that follow land at
// cycle c.
func (w *window) at(c uint64) {
	for w.cyc < c {
		w.cyc++
		w.f.TraceCycle(w.cyc)
	}
}

// close closes the window after its last stamped cycle, detaches the
// sweep and returns the window's view.
func (w *window) close() *WindowTrace {
	v := &WindowTrace{}
	w.sw.CloseWindow(v)
	w.f.StopTrace()
	return v
}

// TestTouchTraceFirstTouch: the trace records the FIRST read and FIRST set
// cycle of each injectable entry and never overwrites them.
func TestTouchTraceFirstTouch(t *testing.T) {
	f, elems := newTestFile()
	ctrl := elems[4] // "ctrl", injectable latch, 5 entries
	w := openWindow(f)

	w.at(1)
	ctrl.Set(2, 7) // first set of ctrl[2] at cycle 1
	w.at(2)
	ctrl.Get(2)    // first read at cycle 2
	ctrl.Set(2, 9) // repeat set: must not move FirstSet
	w.at(3)
	ctrl.Get(2) // repeat read: must not move FirstRead
	ctrl.Get(4) // first read of a never-set entry

	tr := w.close()

	k2 := ctrl.EntryIndex(2)
	if tr.FirstSet(k2) != 1 || tr.FirstRead(k2) != 2 {
		t.Errorf("ctrl[2]: FirstSet=%d FirstRead=%d, want 1/2", tr.FirstSet(k2), tr.FirstRead(k2))
	}
	k4 := ctrl.EntryIndex(4)
	if tr.FirstSet(k4) != 0 || tr.FirstRead(k4) != 3 {
		t.Errorf("ctrl[4]: FirstSet=%d FirstRead=%d, want 0/3", tr.FirstSet(k4), tr.FirstRead(k4))
	}
	k0 := ctrl.EntryIndex(0)
	if tr.FirstSet(k0) != 0 || tr.FirstRead(k0) != 0 {
		t.Errorf("untouched ctrl[0] recorded: FirstSet=%d FirstRead=%d", tr.FirstSet(k0), tr.FirstRead(k0))
	}

	// After StopTrace no element carries the sweep: later touches take
	// the untraced paths and record nothing.
	for _, e := range elems {
		if e.trace != nil || e.fastLim != e.strSh+1 {
			t.Errorf("%s still traced after StopTrace", e.Name())
		}
	}
}

// TestTouchTraceRecordsNoOpSets: a value-unchanged Set is still a write the
// machine performs — it must be recorded (the early-stop classifier relies
// on golden no-op writes clearing a trial's corruption).
func TestTouchTraceRecordsNoOpSets(t *testing.T) {
	f, elems := newTestFile()
	ctrl := elems[4]
	ctrl.Set(1, 5) // pre-trace contents
	w := openWindow(f)
	w.at(4)
	ctrl.Set(1, 5) // no-op: value unchanged
	tr := w.close()
	if got := tr.FirstSet(ctrl.EntryIndex(1)); got != 4 {
		t.Errorf("no-op Set not traced: FirstSet=%d, want 4", got)
	}
}

// TestTouchTraceCoversNonInjectable: non-injectable elements (predictors,
// caches) ARE traced. The convergence certificate proves "the golden run
// never reads the frozen delta after cycle c" — that proof is unsound if
// reads of non-injectable state go unrecorded, so StartTrace attaches the
// trace to every element, not just injection targets.
func TestTouchTraceCoversNonInjectable(t *testing.T) {
	f, elems := newTestFile()
	ic := elems[5] // "icache", NotInjectable
	w := openWindow(f)
	w.at(7)
	ic.Set(3, 42)
	ic.Get(3)
	tr := w.close()
	k := ic.EntryIndex(3)
	if tr.FirstSet(k) != 7 || tr.FirstRead(k) != 7 {
		t.Errorf("icache[3]: FirstSet=%d FirstRead=%d, want 7/7", tr.FirstSet(k), tr.FirstRead(k))
	}
	if tr.LastSet(k) != 7 || tr.LastRead(k) != 7 {
		t.Errorf("icache[3]: LastSet=%d LastRead=%d, want 7/7", tr.LastSet(k), tr.LastRead(k))
	}
}

// TestTouchTraceLastTouch: LastRead/LastSet always advance to the most
// recent touch cycle while First* stay pinned to the earliest.
func TestTouchTraceLastTouch(t *testing.T) {
	f, elems := newTestFile()
	ctrl := elems[4]
	w := openWindow(f)
	w.at(2)
	ctrl.Set(1, 5)
	ctrl.Get(1)
	w.at(6)
	ctrl.Get(1)
	w.at(9)
	ctrl.Set(1, 8)
	tr := w.close()
	k := ctrl.EntryIndex(1)
	if tr.FirstSet(k) != 2 || tr.FirstRead(k) != 2 {
		t.Errorf("ctrl[1]: FirstSet=%d FirstRead=%d, want 2/2", tr.FirstSet(k), tr.FirstRead(k))
	}
	if tr.LastSet(k) != 9 || tr.LastRead(k) != 6 {
		t.Errorf("ctrl[1]: LastSet=%d LastRead=%d, want 9/6", tr.LastSet(k), tr.LastRead(k))
	}
}

// TestCopyEntryTrace: CopyEntry records a copy, not a behavioral read-write
// pair — first touches on both ends (dead-on-arrival reasoning must see the
// propagation and the overwrite), copy edge and last-copy cycle, and NO
// last-read/last-set stamps. A second distinct destination poisons the edge.
func TestCopyEntryTrace(t *testing.T) {
	f, elems := newTestFile()
	ctrl := elems[4]
	ctrl.Set(0, 21)
	w := openWindow(f)
	w.at(3)
	CopyEntry(ctrl, 2, ctrl, 0)
	w.at(8)
	CopyEntry(ctrl, 2, ctrl, 0)
	tr := w.close()
	if got := ctrl.Get(2); got != 21 {
		t.Fatalf("CopyEntry moved %d, want 21", got)
	}
	src, dst := ctrl.EntryIndex(0), ctrl.EntryIndex(2)
	if tr.FirstRead(src) != 3 || tr.FirstSet(dst) != 3 {
		t.Errorf("first touches %d/%d, want 3/3", tr.FirstRead(src), tr.FirstSet(dst))
	}
	if tr.LastRead(src) != 0 || tr.LastSet(dst) != 0 {
		t.Errorf("copy stamped behavioral last touches: LastRead=%d LastSet=%d",
			tr.LastRead(src), tr.LastSet(dst))
	}
	if tr.CopyDst(src) != dst+1 || tr.LastCopy(dst) != 8 {
		t.Errorf("CopyDst=%d LastCopy=%d, want %d/8", tr.CopyDst(src), tr.LastCopy(dst), dst+1)
	}
	w = openWindow(f)
	w.at(3)
	CopyEntry(ctrl, 2, ctrl, 0)
	w.at(9)
	CopyEntry(ctrl, 3, ctrl, 0) // second distinct destination
	tr = w.close()
	if tr.CopyDst(src) != Poisoned {
		t.Errorf("multi-destination source not poisoned: CopyDst=%d", tr.CopyDst(src))
	}
}

// TestCopyEntryDigestJournal: CopyEntry is a real write everywhere but the
// trace — the digest and the undo journal must behave exactly as a Get+Set
// would, including the no-op fast path.
func TestCopyEntryDigestJournal(t *testing.T) {
	f, elems := newTestFile()
	// The sweep keeps the digest incremental past CommitJournal, so the
	// final check compares it with the fold.
	w := openWindow(f)
	w.at(1)
	defer w.close()
	ctrl, rat := elems[4], elems[3] // rat is 7-bit: exercises the straddle path
	ctrl.Set(0, 55)
	rat.Set(9, 101)
	f.BeginJournal()
	mark := f.Mark()
	d0 := f.Digest()
	CopyEntry(ctrl, 1, ctrl, 0)
	CopyEntry(rat, 2, rat, 9)
	if ctrl.Get(1) != 55 || rat.Get(2) != 101 {
		t.Fatalf("copies wrote ctrl[1]=%d rat[2]=%d, want 55/101", ctrl.Get(1), rat.Get(2))
	}
	if f.Digest() == d0 {
		t.Fatal("two value-changing copies left the digest unchanged")
	}
	// A fresh mark makes every word loggable again, so a write the no-op
	// path failed to skip would grow the journal.
	f.Mark()
	d1, j1 := f.Digest(), f.JournalLen()
	CopyEntry(ctrl, 1, ctrl, 0) // no-op: destination already equal
	if f.Digest() != d1 || f.JournalLen() != j1 {
		t.Fatal("no-op CopyEntry changed the digest or the journal")
	}
	if f.Digest() != f.RecomputeDigest() {
		t.Fatalf("digest drifted after CopyEntry: %#x != %#x", f.Digest(), f.RecomputeDigest())
	}
	f.RollbackTo(mark)
	f.CommitJournal()
	if ctrl.Get(1) != 0 || rat.Get(2) != 0 || f.Digest() != f.RecomputeDigest() {
		t.Fatal("journal rollback did not undo CopyEntry writes")
	}
}

// TestEntryIndexDisjoint: every element's entries — injectable or not —
// map to unique trace keys covering [0, allEntries).
func TestEntryIndexDisjoint(t *testing.T) {
	f, _ := newTestFile()
	seen := make(map[uint64]string)
	total := 0
	for _, e := range f.Elems() {
		for i := 0; i < e.Entries(); i++ {
			k := e.EntryIndex(i)
			if prev, dup := seen[k]; dup {
				t.Fatalf("EntryIndex collision at %d: %s and %s[%d]", k, prev, e.Name(), i)
			}
			seen[k] = e.Name()
			total++
		}
	}
	tr := openWindow(f).close()
	if tr.Len() != total {
		t.Fatalf("trace sized %d, want %d", tr.Len(), total)
	}
	for k := range seen {
		if k >= uint64(total) {
			t.Fatalf("EntryIndex %d outside [0,%d)", k, total)
		}
	}
}

// TestProvenDeadTable: ProvenDead over hand-built traces. The predicate is
// shared by the trial engine's closed-form classifier and the static
// prover's liveness rule, so its edge cases are load-bearing twice over.
func TestProvenDeadTable(t *testing.T) {
	cases := []struct {
		name        string
		read, write uint64 // first-touch cycles to plant (0 = never)
		h           uint64
		wantMatch   uint64
		wantDead    bool
	}{
		{"untouched", 0, 0, 10, 0, true},
		{"read-after-overwrite", 5, 3, 10, 3, true},
		{"read-before-overwrite", 2, 3, 10, 3, false},
		{"same-cycle", 3, 3, 10, 3, false}, // intra-cycle order untraced: conservative
		{"read-never-write-in", 0, 4, 10, 4, true},
		{"write-never-read-in", 4, 0, 10, 0, false},
		{"read-beyond-horizon", 12, 0, 10, 0, true},
		{"write-beyond-horizon", 0, 12, 10, 0, true},
		{"both-beyond-horizon", 12, 11, 10, 0, true},
		{"read-at-horizon", 10, 0, 10, 0, false},
		{"write-at-horizon", 0, 10, 10, 10, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, elems := newTestFile()
			ctrl := elems[4]
			w := openWindow(f)
			// Plant the first touches in cycle order; duplicate later touches
			// must not matter, so sprinkle one of each afterwards.
			for cyc := uint64(1); cyc <= 14; cyc++ {
				w.at(cyc)
				if cyc == c.write {
					ctrl.Set(1, cyc)
				}
				if cyc == c.read {
					ctrl.Get(1)
				}
			}
			w.at(15)
			ctrl.Set(1, 99)
			ctrl.Get(1)
			tr := w.close()

			matchAt, dead := tr.ProvenDead(ctrl.EntryIndex(1), c.h)
			if matchAt != c.wantMatch || dead != c.wantDead {
				t.Errorf("ProvenDead(r=%d,w=%d,h=%d) = (%d,%v), want (%d,%v)",
					c.read, c.write, c.h, matchAt, dead, c.wantMatch, c.wantDead)
			}
		})
	}
}

// TestProvenDeadProperty: against randomized per-entry touch schedules, the
// closed form must agree with the definitional check over the full event
// list — "dead" iff no read happens at or before the bound, where the bound
// is the first in-horizon write (the proven re-convergence cycle) or the
// horizon itself.
func TestProvenDeadProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 200; iter++ {
		f, elems := newTestFile()
		ctrl := elems[4]
		const maxCycle = 20
		type ev struct {
			cycle uint64
			read  bool
		}
		events := make([][]ev, ctrl.Entries())
		w := openWindow(f)
		for cyc := uint64(1); cyc <= maxCycle; cyc++ {
			w.at(cyc)
			for i := 0; i < ctrl.Entries(); i++ {
				if rng.Intn(8) == 0 {
					ctrl.Set(i, rng.Uint64())
					events[i] = append(events[i], ev{cyc, false})
				}
				if rng.Intn(8) == 0 {
					ctrl.Get(i)
					events[i] = append(events[i], ev{cyc, true})
				}
			}
		}
		tr := w.close()

		h := uint64(1 + rng.Intn(maxCycle+2))
		for i := 0; i < ctrl.Entries(); i++ {
			wantMatch := uint64(0)
			for _, e := range events[i] {
				if !e.read && e.cycle <= h {
					wantMatch = e.cycle
					break
				}
			}
			bound := h
			if wantMatch != 0 {
				bound = wantMatch
			}
			wantDead := true
			for _, e := range events[i] {
				if e.read && e.cycle <= bound {
					wantDead = false
					break
				}
			}
			matchAt, dead := tr.ProvenDead(ctrl.EntryIndex(i), h)
			if matchAt != wantMatch || dead != wantDead {
				t.Fatalf("iter %d entry %d h=%d: ProvenDead=(%d,%v), want (%d,%v) from events %v",
					iter, i, h, matchAt, dead, wantMatch, wantDead, events[i])
			}
		}
	}
}

// TestObsPreAccumulation: GetObs narrows a traced read to its observation
// mask, accumulated per entry only while the entry still holds its
// pre-overwrite value; the read/last-read stamps are identical to Get's.
func TestObsPreAccumulation(t *testing.T) {
	f, elems := newTestFile()
	ctrl := elems[4] // width 9
	ctrl.Set(1, 0x55)
	obs := func(m uint64) func(uint64) uint64 { return func(uint64) uint64 { return m } }
	w := openWindow(f)
	w.at(1)
	if v := ctrl.GetObs(1, obs(0x3)); v != 0x55 {
		t.Fatalf("GetObs = %#x, want 0x55", v)
	}
	ctrl.GetObs(2, obs(0x3))
	ctrl.GetObs(3, obs(0x3))
	w.at(2)
	ctrl.GetObs(1, obs(0x8))
	ctrl.GetObs(3, obs(0x8))
	// The obs mask is truncated to the element width.
	ctrl.GetObs(1, obs(1<<60))
	ctrl.GetObs(4, obs(1<<60))
	// After the entry's first overwrite, reads observe the recomputed value
	// and must stop accumulating — plain Get included.
	w.at(3)
	ctrl.Set(1, 0x66)
	ctrl.Get(1)
	ctrl.GetObs(1, obs(0x100))
	tr := w.close()

	for _, c := range []struct {
		name                     string
		entry                    int
		obsPre, first, last, set uint64
	}{
		{"one GetObs", 2, 0x3, 1, 1, 0},
		{"two GetObs", 3, 0xB, 1, 2, 0},
		{"out-of-width mask", 4, 0, 2, 2, 0},
		{"reads after the overwrite", 1, 0xB, 1, 3, 3},
	} {
		k := ctrl.EntryIndex(c.entry)
		if tr.ObsPre(k) != c.obsPre || tr.FirstRead(k) != c.first || tr.LastRead(k) != c.last || tr.FirstSet(k) != c.set {
			t.Errorf("%s: ObsPre=%#x FirstRead=%d LastRead=%d FirstSet=%d, want %#x/%d/%d/%d", c.name,
				tr.ObsPre(k), tr.FirstRead(k), tr.LastRead(k), tr.FirstSet(k), c.obsPre, c.first, c.last, c.set)
		}
	}
}

// TestObsPrePlainReadObservesAll: a plain pre-overwrite Get observes the
// whole row, and a CopyEntry observes the whole source row (the copy
// propagates every bit).
func TestObsPrePlainReadObservesAll(t *testing.T) {
	f, elems := newTestFile()
	ctrl := elems[4]
	w := openWindow(f)
	w.at(1)
	ctrl.Get(2)
	CopyEntry(ctrl, 3, ctrl, 4)
	// A copy-in (or any overwrite) seals the destination before later reads.
	w.at(2)
	ctrl.Get(3)
	tr := w.close()
	if got := tr.ObsPre(ctrl.EntryIndex(2)); got != ^uint64(0) {
		t.Errorf("plain Get: ObsPre=%#x, want all-ones", got)
	}
	if got := tr.ObsPre(ctrl.EntryIndex(4)); got != ^uint64(0) {
		t.Errorf("copy src: ObsPre=%#x, want all-ones", got)
	}
	if got := tr.ObsPre(ctrl.EntryIndex(3)); got != 0 {
		t.Errorf("copy dst read post-overwrite: ObsPre=%#x, want 0", got)
	}
}

// TestGetObsUntraced: with no trace attached, GetObs is Get — the closure
// is never invoked.
func TestGetObsUntraced(t *testing.T) {
	f, elems := newTestFile()
	ctrl := elems[4]
	ctrl.Set(1, 0x77)
	calls := 0
	v := ctrl.GetObs(1, func(uint64) uint64 { calls++; return ^uint64(0) })
	if v != 0x77 || calls != 0 {
		t.Fatalf("untraced GetObs = %#x with %d obs calls, want 0x77 / 0", v, calls)
	}
	_ = f
}

// TestGetObsStraddle: GetObs reads straddling rows identically to Get.
func TestGetObsStraddle(t *testing.T) {
	f, elems := newTestFile()
	rat := elems[3] // 7-bit rows: entry 9 straddles a word boundary
	for i := 0; i < rat.Entries(); i++ {
		rat.Set(i, uint64(3*i+1))
	}
	w := openWindow(f)
	w.at(1)
	for i := 0; i < rat.Entries(); i++ {
		want := rat.Get(i)
		if got := rat.GetObs(i, func(uint64) uint64 { return 1 }); got != want {
			t.Fatalf("GetObs(%d) = %#x, want %#x", i, got, want)
		}
	}
	w.close()
}

// TestIncrementalDigestMatchesRecompute: after an arbitrary mix of Sets,
// Flips, journal rewinds and snapshot restores, the incrementally
// maintained Digest must equal the from-scratch RecomputeDigest oracle.
// A one-window sweep keeps the digest maintained throughout; a plain
// file's Digest would be the recompute itself.
func TestIncrementalDigestMatchesRecompute(t *testing.T) {
	f, elems := newTestFile()
	w := openWindow(f)
	w.at(1)
	defer w.close()
	rng := rand.New(rand.NewSource(7))
	inj := make([]*Elem, 0, len(elems))
	for _, e := range elems {
		inj = append(inj, e) // include the non-injectable icache too
	}
	check := func(step string) {
		t.Helper()
		if f.Digest() != f.RecomputeDigest() {
			t.Fatalf("%s: incremental digest %#x != recomputed %#x", step, f.Digest(), f.RecomputeDigest())
		}
	}
	check("zero state")
	for k := 0; k < 500; k++ {
		e := inj[rng.Intn(len(inj))]
		e.Set(rng.Intn(e.Entries()), rng.Uint64())
	}
	check("after random Sets")

	snap := f.Snapshot()
	f.BeginJournal()
	mark := f.Mark()
	for k := 0; k < 200; k++ {
		e := inj[rng.Intn(len(inj))]
		if e.Injectable() && k%3 == 0 {
			e.Flip(rng.Intn(e.Entries()), rng.Intn(e.Width()))
		} else {
			e.Set(rng.Intn(e.Entries()), rng.Uint64())
		}
	}
	check("after journaled writes")
	f.RollbackTo(mark)
	check("after rollback")
	f.CommitJournal()
	f.Restore(snap)
	check("after restore")
}

// TestTraceCycleOverflow: cycle stamps are uint32, so a cycle number they
// cannot hold must panic rather than wrap into a stamp that reads as an
// earlier cycle (or as "never touched"); a window at the top of the range
// still reads its stamps.
func TestTraceCycleOverflow(t *testing.T) {
	f := New()
	ctrl := f.Latch("ctrl", CatCtrl, 2, 8)
	f.Freeze()
	sw := f.NewSweep()
	f.StartTrace(sw)
	defer f.StopTrace()
	f.TraceCycle(math.MaxUint32 - 1) // no window open yet: cycles may jump
	sw.OpenWindow(math.MaxUint32 - 1)
	f.TraceCycle(math.MaxUint32)
	ctrl.Get(0)
	tr := &WindowTrace{}
	sw.CloseWindow(tr)
	if k := ctrl.EntryIndex(0); tr.FirstRead(k) != 1 || tr.LastRead(k) != 1 {
		t.Fatalf("FirstRead/LastRead = %d/%d, want 1/1", tr.FirstRead(k), tr.LastRead(k))
	}
	defer func() {
		if recover() == nil {
			t.Error("TraceCycle(2^32) did not panic")
		}
	}()
	f.TraceCycle(math.MaxUint32 + 1)
}
