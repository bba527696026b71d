package state

import (
	"math"
	"math/rand"
	"testing"
)

// TestTouchTraceFirstTouch: the trace records the FIRST read and FIRST set
// cycle of each injectable entry and never overwrites them.
func TestTouchTraceFirstTouch(t *testing.T) {
	f, elems := newTestFile()
	ctrl := elems[4] // "ctrl", injectable latch, 5 entries
	tr := f.NewTouchTrace()
	f.StartTrace(tr)

	f.TraceCycle(1)
	ctrl.Set(2, 7) // first set of ctrl[2] at cycle 1
	f.TraceCycle(2)
	ctrl.Get(2)    // first read at cycle 2
	ctrl.Set(2, 9) // repeat set: must not move FirstSet
	f.TraceCycle(3)
	ctrl.Get(2) // repeat read: must not move FirstRead
	ctrl.Get(4) // first read of a never-set entry

	f.StopTrace()

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

	// Touches after StopTrace must not record.
	ctrl.Set(0, 1)
	if tr.FirstSet(k0) != 0 {
		t.Error("Set after StopTrace recorded into the trace")
	}
}

// TestTouchTraceRecordsNoOpSets: a value-unchanged Set is still a write the
// machine performs — it must be recorded (the early-stop classifier relies
// on golden no-op writes clearing a trial's corruption).
func TestTouchTraceRecordsNoOpSets(t *testing.T) {
	f, elems := newTestFile()
	ctrl := elems[4]
	ctrl.Set(1, 5) // pre-trace contents
	tr := f.NewTouchTrace()
	f.StartTrace(tr)
	f.TraceCycle(4)
	ctrl.Set(1, 5) // no-op: value unchanged
	f.StopTrace()
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
	tr := f.NewTouchTrace()
	f.StartTrace(tr)
	f.TraceCycle(7)
	ic.Set(3, 42)
	ic.Get(3)
	f.StopTrace()
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
	tr := f.NewTouchTrace()
	f.StartTrace(tr)
	f.TraceCycle(2)
	ctrl.Set(1, 5)
	ctrl.Get(1)
	f.TraceCycle(6)
	ctrl.Get(1)
	f.TraceCycle(9)
	ctrl.Set(1, 8)
	f.StopTrace()
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
	tr := f.NewTouchTrace()
	f.StartTrace(tr)
	f.TraceCycle(3)
	CopyEntry(ctrl, 2, ctrl, 0)
	f.TraceCycle(8)
	CopyEntry(ctrl, 2, ctrl, 0)
	f.StopTrace()
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
	f.StartTrace(tr)
	f.TraceCycle(9)
	CopyEntry(ctrl, 3, ctrl, 0) // second distinct destination
	f.StopTrace()
	if tr.CopyDst(src) != Poisoned {
		t.Errorf("multi-destination source not poisoned: CopyDst=%d", tr.CopyDst(src))
	}
}

// TestCopyEntryDigestJournal: CopyEntry is a real write everywhere but the
// trace — the digest and the undo journal must behave exactly as a Get+Set
// would, including the no-op fast path.
func TestCopyEntryDigestJournal(t *testing.T) {
	f, elems := newTestFile()
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
	tr := f.NewTouchTrace()
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
			tr := f.NewTouchTrace()
			f.StartTrace(tr)
			// Plant the first touches in cycle order; duplicate later touches
			// must not matter, so sprinkle one of each afterwards.
			for cyc := uint64(1); cyc <= 14; cyc++ {
				f.TraceCycle(cyc)
				if cyc == c.write {
					ctrl.Set(1, cyc)
				}
				if cyc == c.read {
					ctrl.Get(1)
				}
			}
			f.TraceCycle(15)
			ctrl.Set(1, 99)
			ctrl.Get(1)
			f.StopTrace()

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
		tr := f.NewTouchTrace()
		f.StartTrace(tr)
		for cyc := uint64(1); cyc <= maxCycle; cyc++ {
			f.TraceCycle(cyc)
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
		f.StopTrace()

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
	tr := f.NewTouchTrace()
	f.StartTrace(tr)
	f.TraceCycle(1)
	k := ctrl.EntryIndex(1)
	if v := ctrl.GetObs(1, func(v uint64) uint64 { return 0x3 }); v != 0x55 {
		t.Fatalf("GetObs = %#x, want 0x55", v)
	}
	if tr.ObsPre(k) != 0x3 || tr.FirstRead(k) != 1 || tr.LastRead(k) != 1 {
		t.Fatalf("after first GetObs: ObsPre=%#x FirstRead=%d LastRead=%d",
			tr.ObsPre(k), tr.FirstRead(k), tr.LastRead(k))
	}
	f.TraceCycle(2)
	ctrl.GetObs(1, func(uint64) uint64 { return 0x8 })
	if tr.ObsPre(k) != 0xB || tr.FirstRead(k) != 1 || tr.LastRead(k) != 2 {
		t.Fatalf("after second GetObs: ObsPre=%#x FirstRead=%d LastRead=%d",
			tr.ObsPre(k), tr.FirstRead(k), tr.LastRead(k))
	}
	// The obs mask is truncated to the element width.
	ctrl.GetObs(1, func(uint64) uint64 { return 1 << 60 })
	if tr.ObsPre(k) != 0xB {
		t.Fatalf("out-of-width obs bits recorded: ObsPre=%#x", tr.ObsPre(k))
	}
	// After the entry's first overwrite, reads observe the recomputed value
	// and must stop accumulating — plain Get included.
	f.TraceCycle(3)
	ctrl.Set(1, 0x66)
	ctrl.Get(1)
	ctrl.GetObs(1, func(uint64) uint64 { return 0x100 })
	if tr.ObsPre(k) != 0xB {
		t.Fatalf("post-overwrite read accumulated: ObsPre=%#x", tr.ObsPre(k))
	}
	f.StopTrace()
}

// TestObsPrePlainReadObservesAll: a plain pre-overwrite Get observes the
// whole row, and a CopyEntry observes the whole source row (the copy
// propagates every bit).
func TestObsPrePlainReadObservesAll(t *testing.T) {
	f, elems := newTestFile()
	ctrl := elems[4]
	tr := f.NewTouchTrace()
	f.StartTrace(tr)
	f.TraceCycle(1)
	ctrl.Get(2)
	if got := tr.ObsPre(ctrl.EntryIndex(2)); got != ^uint64(0) {
		t.Fatalf("plain Get: ObsPre=%#x, want all-ones", got)
	}
	CopyEntry(ctrl, 3, ctrl, 4)
	if got := tr.ObsPre(ctrl.EntryIndex(4)); got != ^uint64(0) {
		t.Fatalf("copy src: ObsPre=%#x, want all-ones", got)
	}
	// A copy-in (or any overwrite) seals the destination before later reads.
	f.TraceCycle(2)
	ctrl.Get(3)
	if got := tr.ObsPre(ctrl.EntryIndex(3)); got != 0 {
		t.Fatalf("copy dst read post-overwrite: ObsPre=%#x, want 0", got)
	}
	f.StopTrace()
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
	tr := f.NewTouchTrace()
	f.StartTrace(tr)
	f.TraceCycle(1)
	for i := 0; i < rat.Entries(); i++ {
		want := rat.Get(i)
		if got := rat.GetObs(i, func(uint64) uint64 { return 1 }); got != want {
			t.Fatalf("GetObs(%d) = %#x, want %#x", i, got, want)
		}
	}
	f.StopTrace()
}

// TestIncrementalDigestMatchesRecompute: after an arbitrary mix of Sets,
// Flips, journal rewinds and snapshot restores, the incrementally
// maintained Digest must equal the from-scratch RecomputeDigest oracle.
func TestIncrementalDigestMatchesRecompute(t *testing.T) {
	f, elems := newTestFile()
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
// earlier cycle (or as "never touched").
func TestTraceCycleOverflow(t *testing.T) {
	f := New()
	ctrl := f.Latch("ctrl", CatCtrl, 2, 8)
	f.Freeze()
	tr := f.NewTouchTrace()
	f.StartTrace(tr)
	defer f.StopTrace()
	f.TraceCycle(math.MaxUint32)
	ctrl.Get(0)
	if got := tr.FirstRead(ctrl.EntryIndex(0)); got != math.MaxUint32 {
		t.Fatalf("FirstRead = %d, want %d", got, uint64(math.MaxUint32))
	}
	defer func() {
		if recover() == nil {
			t.Error("TraceCycle(2^32) did not panic")
		}
	}()
	f.TraceCycle(math.MaxUint32 + 1)
}
