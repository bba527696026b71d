package core

import (
	"context"
	"slices"

	"pipefault/internal/mem"
	"pipefault/internal/state"
	"pipefault/internal/uarch"
)

// The golden sweep. One machine steps the fault-free run once, from the
// first checkpoint c_0 to the end of the last window, c_last + Horizon.
// Every checkpoint i owns the window [c_i, c_i + Horizon]; windows overlap
// when checkpoints lie closer than Horizon, and each cycle of their union
// is stepped once, traced, however many windows cover it. Between windows
// the machine walks untraced.
//
// At c_i the sweep captures checkpoint i's portable image and opens its
// window. While any window is open it records each cycle into rings
// indexed by traced-cycle ordinal: the composite digest, the cumulative
// retirement count and the retire, illegal-fetch and exception flags; the
// retirement events by event ordinal; and a keyframe at every absolute
// convStride boundary, as a delta against the base state captured when
// the run of overlapping windows began. The state.Sweep attached to the
// state file records the touch trace. At c_i + Horizon the window closes:
// its golden run is the rings plus its ordinals, its touch-trace view is
// closed out of the state.Sweep, and the checkpoint goes to a worker.
//
// A worker reads its window in the rings while the sweep writes later
// cycles, and returns the window when its checkpoint is done. The sweep
// overwrites a ring slot only once every window that reads it has been
// returned. The rings hold a horizon plus a quarter horizon per worker, so
// the sweep can run on while each worker holds a window; when it needs a
// slot an outstanding window still holds, it waits for that window's
// return, and it grows a ring only when the open windows alone outgrow it
// (or windows are never returned), the holders then reading the old one.
// Returned windows lend their snapshot, view and keyframe storage to new
// ones, and the images their workers no longer read go back to the
// sweep's memory for later captures, so a campaign allocates its golden
// buffers once.

// ckWindow is one checkpoint as the sweep hands it to a worker: the
// portable image captured at the checkpoint cycle (the state file as a
// delta against the run's base) and the checkpoint's golden run.
// Read-only from hand-off until the worker returns it, but for prev: the
// image the worker's machine held before it restored this one, which
// nothing reads once the window is back (see (*worker).restore).
type ckWindow struct {
	ck   int
	snap uarch.Snapshot
	mem  *mem.Image
	prev *mem.Image
	g    goldenRun
}

// cycleRec is one traced cycle of the sweep.
type cycleRec struct {
	digest uint64 // composite digest (state ^ memory) after the cycle
	ev     uint32 // retirement events recorded through the cycle (mod 2^32)
	flags  uint8
}

// cycleRec flags.
const (
	cycRetired = 1 << iota // at least one instruction retired this cycle
	cycIllegal             // FetchStalledIllegal() after the cycle
	cycExc                 // an exception reached retirement this cycle
	cycDTLB                // ... and this cycle's first one was a DTLB miss
)

// sweeper is the golden sweep's state on its machine. Every field but the
// machine is engine scaffolding: the sweep's recording, read by trials as
// golden data, never injected.
type sweeper struct {
	m *uarch.Machine
	//pipelint:shadow-ok sweep parameter: the trial horizon
	h uint64
	//pipelint:shadow-ok the sweep's touch-trace recorder; engine scaffolding
	tr *state.Sweep
	//pipelint:shadow-ok the campaign context, for waits on returned; engine scaffolding
	ctx context.Context
	//pipelint:shadow-ok ring size in cycles; engine scaffolding
	ringCycles uint64
	//pipelint:shadow-ok windows their workers have finished with; engine scaffolding
	returned <-chan *ckWindow
	//pipelint:shadow-ok touch-trace views of returned windows; engine scaffolding
	views []*state.WindowTrace
	//pipelint:shadow-ok returned windows whose storage the next ones reuse; engine scaffolding
	free []*ckWindow
	//pipelint:shadow-ok open windows, oldest first; engine scaffolding
	open []*ckWindow
	//pipelint:shadow-ok handed windows not yet returned; engine scaffolding
	held []*ckWindow

	//pipelint:shadow-ok golden recording: ring of traced cycles by ordinal
	cyc []cycleRec
	//pipelint:shadow-ok golden recording: traced cycles so far
	ord uint64
	//pipelint:shadow-ok golden recording: ring of retirement events by ordinal
	events []goldenEvent
	//pipelint:shadow-ok golden recording: retirement events so far
	evN uint64
	//pipelint:shadow-ok golden recording: ring of keyframes by ordinal
	kfs []keyframe
	//pipelint:shadow-ok golden recording: keyframes so far
	kfN uint64
	//pipelint:shadow-ok golden recording: the image and keyframe base of the current run of windows
	base *state.Snapshot
	//pipelint:shadow-ok every base the sweep has captured, for reuse once no window reads one; engine scaffolding
	bases []*state.Snapshot
	//pipelint:shadow-ok golden recording: the retirement count after the last traced cycle
	lastRetired uint64
	//pipelint:shadow-ok golden recording: the stepping cycle's exception flags
	exc uint8

	onRetire func(uarch.RetireEvent)
	onExc    func(uarch.ExcEvent)
}

// testSweepSteps, when non-nil, counts every Step the golden sweep takes,
// traced or not. Test-only.
var testSweepSteps func()

// runSweep runs the golden sweep over cycles (sorted) on m, which stands at
// or before cycles[0], and calls hand with each window as it closes, in
// checkpoint order. Workers return handed windows on returned (nil: windows
// are never returned, and the rings grow to hold them all). Journal-
// complete checkpoints (skip; nil skips none) open no window. A machine
// that architecturally halts before a checkpoint opens no further windows;
// windows already open run their full horizon, halted or not, as a golden
// continuation does. The sweep stops when hand returns false or ctx is
// cancelled. Every window records the touch trace and the keyframes,
// whatever cfg's EarlyStop and Prove; only their readers depend on them.
func runSweep(ctx context.Context, cfg Config, m *uarch.Machine, cycles []uint64, skip []bool, returned <-chan *ckWindow, hand func(*ckWindow) bool) {
	s := &sweeper{
		m:   m,
		ctx: ctx,
		h:   uint64(cfg.Horizon),
		// A horizon for the open windows, and a quarter horizon per worker
		// for the windows the workers hold.
		ringCycles: uint64(cfg.Horizon) + uint64(cfg.Horizon/4)*uint64(max(cfg.Workers, 1)) + 1,
		tr:         m.F.NewSweep(),
		returned:   returned,
	}
	s.onRetire = func(ev uarch.RetireEvent) {
		s.events[s.evN%uint64(len(s.events))] = goldenEventOf(ev)
		s.evN++
	}
	s.onExc = func(ev uarch.ExcEvent) {
		if s.exc != 0 {
			return
		}
		s.exc = cycExc
		if ev.Kind == uarch.ExcDTLB {
			s.exc |= cycDTLB
		}
	}
	m.Mem.BeginImaging()
	defer m.Mem.EndImaging()
	defer s.detach()

	next := 0
	for {
		for next < len(cycles) && cycles[next] <= m.Cycle {
			if skip == nil || !skip[next] {
				if m.Halted() {
					next = len(cycles)
					break
				}
				s.openWindow(next)
			}
			next++
		}
		if len(s.open) == 0 {
			for next < len(cycles) && skip != nil && skip[next] {
				next++
			}
			if next == len(cycles) || ctx.Err() != nil || !s.walkTo(cycles[next]) {
				return
			}
			continue
		}
		if !s.step() {
			return
		}
		for len(s.open) > 0 && s.open[0].g.start+s.h == m.Cycle {
			w := s.closeWindow()
			s.held = append(s.held, w)
			if !hand(w) {
				return
			}
		}
		if m.Cycle&(convStride-1) == 0 && ctx.Err() != nil {
			return
		}
	}
}

// walkTo is walkTo for the sweep machine, counting steps for the test
// hook.
func (s *sweeper) walkTo(cyc uint64) bool {
	for s.m.Cycle < cyc && !s.m.Halted() {
		s.m.Step()
		if testSweepSteps != nil {
			testSweepSteps()
		}
	}
	return !s.m.Halted()
}

// openWindow captures checkpoint ck's image at the current cycle and opens
// its window. The first window of a run of overlapping ones attaches the
// trace and the callbacks and captures the run's base.
func (s *sweeper) openWindow(ck int) {
	m := s.m
	if len(s.open) == 0 {
		if s.cyc == nil {
			// Retirements at the IPC so far plus an eighth.
			n := s.ringCycles
			s.cyc = make([]cycleRec, n)
			s.events = make([]goldenEvent, n*m.Retired/max(m.Cycle, 1)*9/8+uarch.RetireWidth)
			s.kfs = make([]keyframe, n/convStride+2)
		}
		// The attached sweep keeps the file hashed for the cycle digests.
		m.F.StartTrace(s.tr)
		// A fresh base: outstanding windows may still read the previous one.
		s.base = s.freeBase()
		m.F.SnapshotInto(s.base)
		m.OnRetire, m.OnExc = s.onRetire, s.onExc
		s.lastRetired = m.Retired
	}
	s.tr.OpenWindow(m.Cycle)
	var w *ckWindow
	if len(s.free) == 0 {
		s.reclaim()
	}
	if n := len(s.free); n > 0 {
		w, s.free = s.free[n-1], s.free[:n-1]
	} else {
		w = &ckWindow{}
	}
	w.ck = ck
	m.SnapshotDeltaInto(&w.snap, s.base)
	w.mem = m.Mem.CaptureImage()
	w.g = goldenRun{
		start: m.Cycle, n: int(s.h), ord: s.ord, ev0: s.evN, kf0: s.kfN, base: s.base,
	}
	s.open = append(s.open, w)
}

// freeBase returns a base no outstanding window reads, allocating one only
// when each is still read. No window is open when a run begins, so only the
// handed ones can read an earlier run's base.
func (s *sweeper) freeBase() *state.Snapshot {
	for _, b := range s.bases {
		if !slices.ContainsFunc(s.held, func(w *ckWindow) bool { return w.g.base == b }) {
			return b
		}
	}
	b := new(state.Snapshot)
	s.bases = append(s.bases, b)
	return b
}

// step steps one traced cycle and records it, or reports false when the
// campaign is cancelled while it waits for ring space.
func (s *sweeper) step() bool {
	m := s.m
	a := m.Cycle + 1
	atKf := a&(convStride-1) == 0
	if !s.reserve(atKf) {
		return false
	}
	m.F.TraceCycle(a)
	s.exc = 0
	m.Step()
	if testSweepSteps != nil {
		testSweepSteps()
	}
	fl := s.exc
	if m.Retired > s.lastRetired {
		s.lastRetired = m.Retired
		fl |= cycRetired
	}
	if m.FetchStalledIllegal() {
		fl |= cycIllegal
	}
	s.cyc[s.ord%uint64(len(s.cyc))] = cycleRec{digest: m.TraceDigest(), ev: uint32(s.evN), flags: fl}
	s.ord++
	if atKf {
		kf := &s.kfs[s.kfN%uint64(len(s.kfs))]
		kf.cyc, kf.memDigest = a, m.Mem.Digest()
		m.F.DeltaInto(&kf.delta, s.base)
		s.kfN++
	}
	return true
}

// reserve makes room in the rings for one more cycle, a cycle's worth of
// retirements and, with kf, a keyframe: it overwrites slots no open or
// outstanding window reads, waits for a worker to return a window that
// holds the slots it needs, and grows a ring only when nothing it waits
// for can free one. It reports false when the campaign is cancelled while
// it waits.
func (s *sweeper) reserve(kf bool) bool {
	for {
		ord, ev, k := s.low()
		cycOK := s.ord+1-ord <= uint64(len(s.cyc))
		evOK := s.evN+uarch.RetireWidth-ev <= uint64(len(s.events))
		kfOK := !kf || s.kfN+1-k <= uint64(len(s.kfs))
		switch {
		case cycOK && evOK && kfOK:
			return true
		case s.reclaim():
		case len(s.held) > 0 && s.returned != nil:
			select {
			case w := <-s.returned:
				s.take(w)
			case <-s.ctx.Done():
				return false
			}
		case !cycOK:
			s.cyc = regrow(s.cyc, ord, s.ord)
		case !evOK:
			s.events = regrow(s.events, ev, s.evN)
		default:
			s.kfs = regrow(s.kfs, k, s.kfN)
		}
	}
}

// low returns the oldest cycle, event and keyframe ordinals any open or
// outstanding window reads.
func (s *sweeper) low() (ord, ev, kf uint64) {
	ord, ev, kf = s.ord, s.evN, s.kfN
	for _, ws := range [2][]*ckWindow{s.open, s.held} {
		for _, w := range ws {
			ord, ev, kf = min(ord, w.g.ord), min(ev, w.g.ev0), min(kf, w.g.kf0)
		}
	}
	return ord, ev, kf
}

// reclaim takes back every window its worker has returned, and reports
// whether there was one.
func (s *sweeper) reclaim() bool {
	got := false
	for {
		select {
		case w := <-s.returned:
			s.take(w)
			got = true
		default:
			return got
		}
	}
}

// take takes back a returned window: its slots are free, and its storage
// goes to the next windows. Its own image is still its worker's current
// one; the image that worker held before is released.
func (s *sweeper) take(w *ckWindow) {
	s.held = slices.DeleteFunc(s.held, func(h *ckWindow) bool { return h == w })
	s.views = append(s.views, w.g.trace)
	if w.prev != nil {
		s.m.Mem.ReleaseImage(w.prev)
	}
	w.mem, w.prev, w.g = nil, nil, goldenRun{}
	s.free = append(s.free, w)
}

// regrow returns a ring twice the size of buf holding buf's ordinals
// [lo, hi). Outstanding windows keep reading buf, which the sweep no
// longer writes.
func regrow[T any](buf []T, lo, hi uint64) []T {
	n := make([]T, 2*len(buf))
	for o := lo; o < hi; o++ {
		n[o%uint64(len(n))] = buf[o%uint64(len(buf))]
	}
	return n
}

// closeWindow closes the oldest open window, whose last cycle was just
// stepped, and returns it with its golden run pointing into the rings.
func (s *sweeper) closeWindow() *ckWindow {
	w := s.open[0]
	s.open = append(s.open[:0], s.open[1:]...)
	g := &w.g
	g.cycles, g.events, g.keyframes = s.cyc, s.events, s.kfs
	g.nEv, g.nKf = int(s.evN-g.ev0), int(s.kfN-g.kf0)
	for c := 1; c <= g.n; c++ {
		if fl := g.cycle(c).flags; fl&cycExc != 0 {
			g.excAt, g.excMode = uint64(c), FailExcept
			if fl&cycDTLB != 0 {
				g.excMode = FailDTLB
			}
			break
		}
	}
	if len(s.views) == 0 {
		s.reclaim()
	}
	if n := len(s.views); n > 0 {
		g.trace, s.views = s.views[n-1], s.views[:n-1]
	} else {
		g.trace = &state.WindowTrace{}
	}
	s.tr.CloseWindow(g.trace)
	g.failAt, g.failMode = g.replay(0, streaks{}, s.h, 0, false)
	if len(s.open) == 0 {
		s.detach()
	}
	return w
}

// detach ends a run of overlapping windows: the trace and the callbacks
// come off the machine, which walks plain to the next window.
func (s *sweeper) detach() {
	s.m.F.StopTrace()
	s.m.OnRetire, s.m.OnExc = nil, nil
}
