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

// TestSweepMatchesWindowTraces is the Sweep's differential oracle: over
// random access scripts and random window schedules (duplicate starts,
// dense overlaps, gaps with no window open), every window's view must
// equal, entry for entry and accessor for accessor, the TouchTrace of a
// run that replays only that window's cycles with window-relative stamps.
func TestSweepMatchesWindowTraces(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const cycles = 400
			h := 20 + rng.Intn(80)
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
			for n := 1 + rng.Intn(12); n > 0; n-- {
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
						f.StartSweep(sw)
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

			for w, s := range starts {
				rf, relems := newTestFile()
				tr := rf.NewTouchTrace()
				rf.StartTrace(tr)
				for a := s + 1; a <= s+h; a++ {
					rf.TraceCycle(uint64(a - s))
					run(relems, script[a])
				}
				rf.StopTrace()
				v := views[w]
				if v.Len() != tr.Len() {
					t.Fatalf("window %d at %d: view covers %d entries, want %d", w, s, v.Len(), tr.Len())
				}
				for k := uint64(0); k < uint64(tr.Len()); k++ {
					for _, acc := range []struct {
						name string
						got  func(*WindowTrace, uint64) uint64
						want func(*TouchTrace, uint64) uint64
					}{
						{"FirstRead", (*WindowTrace).FirstRead, (*TouchTrace).FirstRead},
						{"FirstSet", (*WindowTrace).FirstSet, (*TouchTrace).FirstSet},
						{"LastRead", (*WindowTrace).LastRead, (*TouchTrace).LastRead},
						{"LastSet", (*WindowTrace).LastSet, (*TouchTrace).LastSet},
						{"LastCopy", (*WindowTrace).LastCopy, (*TouchTrace).LastCopy},
						{"CopyDst", (*WindowTrace).CopyDst, (*TouchTrace).CopyDst},
						{"ObsPre", (*WindowTrace).ObsPre, (*TouchTrace).ObsPre},
					} {
						if g, want := acc.got(v, k), acc.want(tr, k); g != want {
							t.Fatalf("window %d at %d (h %d): %s(%d) = %d, want %d", w, s, h, acc.name, k, g, want)
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
