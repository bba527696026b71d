package state

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// sweepOp is one traced access of a scripted run.
type sweepOp struct {
	kind     int // 0 Get, 1 GetObs, 2 Set, 3 CopyEntry
	e, i     int // element index and entry
	se, si   int // CopyEntry source
	obs, val uint64
}

// naiveTouch is one entry's record in naiveWindow's reference trace.
type naiveTouch struct {
	firstRead, firstSet, lastRead, lastSet, lastCopy uint64
	copyDst, obsPre                                  uint64
}

// naiveWindow is the touch trace of the window [start, start+h] of a
// scripted run, computed from the script alone: it replays the window's
// ops in order against per-entry records, with stamps relative to start.
// It shares no code with Sweep, so it is an independent reference for
// every view a sweep closes.
func naiveWindow(elems []*Elem, script [][]sweepOp, start, h int) map[uint64]*naiveTouch {
	recs := make(map[uint64]*naiveTouch)
	rec := func(e, i int) (*naiveTouch, uint64) {
		k := elems[e].EntryIndex(i)
		if recs[k] == nil {
			recs[k] = &naiveTouch{}
		}
		return recs[k], k
	}
	for a := start + 1; a <= start+h; a++ {
		t := uint64(a - start)
		for _, op := range script[a] {
			r, k := rec(op.e, op.i)
			switch op.kind {
			case 0, 1: // a read observes the whole row, or GetObs's mask
				if r.firstRead == 0 {
					r.firstRead = t
				}
				r.lastRead = t
				if r.firstSet == 0 {
					if op.kind == 0 {
						r.obsPre = ^uint64(0)
					} else {
						r.obsPre |= op.obs & (1<<elems[op.e].Width() - 1)
					}
				}
			case 2:
				if r.firstSet == 0 {
					r.firstSet = t
				}
				r.lastSet = t
			case 3: // a copy: a first read of the source, a first write of dst
				src, _ := rec(op.se, op.si)
				if src.firstRead == 0 {
					src.firstRead = t
				}
				if src.firstSet == 0 {
					src.obsPre = ^uint64(0)
				}
				switch src.copyDst {
				case 0:
					src.copyDst = k + 1
				case k + 1:
				default:
					src.copyDst = Poisoned
				}
				if r.firstSet == 0 {
					r.firstSet = t
				}
				r.lastCopy = t
			}
		}
	}
	return recs
}

// TestSweepMatchesWindowTraces is the Sweep's differential oracle: over
// random access scripts and random window schedules (duplicate starts,
// dense overlaps, gaps with no window open), every window's view must
// equal, entry for entry and accessor for accessor, the naive reference
// trace of that window computed from the script (naiveWindow). The last
// seeds run long scripts whose logs span many chunks.
func TestSweepMatchesWindowTraces(t *testing.T) {
	for seed := int64(1); seed <= 44; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cycles, h, windows := 400, 20+rng.Intn(80), 12
			if seed > 40 {
				cycles, h, windows = 30000, 4000+rng.Intn(8000), 40
			}
			// A few hot entries per element keep first touches rare and
			// repeated touches common, the shape the epoch test is for.
			script := make([][]sweepOp, cycles+1)
			for a := 1; a <= cycles; a++ {
				for n := rng.Intn(6); n > 0; n-- {
					op := sweepOp{kind: rng.Intn(4), e: 3 + rng.Intn(2), i: rng.Intn(5), obs: 1 << rng.Intn(7), val: rng.Uint64()}
					if rng.Intn(3) == 0 {
						op.obs = 0
					}
					op.se, op.si = op.e, rng.Intn(5)
					script[a] = append(script[a], op)
				}
			}
			var starts []int
			for n := 1 + rng.Intn(windows); n > 0; n-- {
				starts = append(starts, rng.Intn(cycles-h))
			}
			if rng.Intn(2) == 0 {
				starts = append(starts, starts[0]) // a duplicate checkpoint
			}
			slices.Sort(starts)

			f, elems := newTestFile()
			run := func(elems []*Elem, ops []sweepOp) {
				for _, op := range ops {
					e := elems[op.e]
					switch op.kind {
					case 0:
						e.Get(op.i)
					case 1:
						e.GetObs(op.i, func(uint64) uint64 { return op.obs })
					case 2:
						e.Set(op.i, op.val)
					case 3:
						CopyEntry(e, op.i, elems[op.se], op.si)
					}
				}
			}
			sw := f.NewSweep()
			var views []*WindowTrace
			next := 0
			for a := 1; a <= cycles; a++ {
				for next < len(starts) && starts[next] < a {
					if sw.Open() == 0 {
						f.StartTrace(sw)
					}
					sw.OpenWindow(uint64(starts[next]))
					next++
				}
				if sw.Open() > 0 {
					f.TraceCycle(uint64(a))
				}
				run(elems, script[a])
				for len(views) < next && starts[len(views)]+h == a {
					v := &WindowTrace{}
					sw.CloseWindow(v)
					views = append(views, v)
					if sw.Open() == 0 {
						f.StopTrace()
					}
				}
			}

			total := 0
			for _, e := range elems {
				total += e.Entries()
			}
			for w, s := range starts {
				want := naiveWindow(elems, script, s, h)
				v := views[w]
				if v.Len() != total {
					t.Fatalf("window %d at %d: view covers %d entries, want %d", w, s, v.Len(), total)
				}
				for k := uint64(0); k < uint64(total); k++ {
					r := want[k]
					if r == nil {
						r = &naiveTouch{}
					}
					for _, acc := range []struct {
						name string
						got  func(*WindowTrace, uint64) uint64
						want uint64
					}{
						{"FirstRead", (*WindowTrace).FirstRead, r.firstRead},
						{"FirstSet", (*WindowTrace).FirstSet, r.firstSet},
						{"LastRead", (*WindowTrace).LastRead, r.lastRead},
						{"LastSet", (*WindowTrace).LastSet, r.lastSet},
						{"LastCopy", (*WindowTrace).LastCopy, r.lastCopy},
						{"CopyDst", (*WindowTrace).CopyDst, r.copyDst},
						{"ObsPre", (*WindowTrace).ObsPre, r.obsPre},
					} {
						if g := acc.got(v, k); g != acc.want {
							t.Fatalf("window %d at %d (h %d): %s(%d) = %d, want %d", w, s, h, acc.name, k, g, acc.want)
						}
					}
				}
			}
			if sw.LogLen() != 0 {
				t.Errorf("log holds %d slots with no window open", sw.LogLen())
			}
		})
	}
}
