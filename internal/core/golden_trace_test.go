package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"pipefault/internal/mem"
	"pipefault/internal/state"
	"pipefault/internal/uarch"
	"pipefault/internal/workload"
)

// scheduleWindows runs the golden sweep over cfg's checkpoint schedule
// and returns every window it hands out, with a worker whose machine
// restore puts at a window's checkpoint.
func scheduleWindows(t *testing.T, cfg Config) (*worker, []*ckWindow) {
	t.Helper()
	s, err := setupCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, warm, cycles, err := s.schedule()
	if err != nil {
		t.Fatal(err)
	}
	wins := sweepWindows(s.cfg, walkStart(warm, s.newMachine, cycles), cycles, nil)
	if len(wins) != len(cycles) {
		t.Fatalf("sweep handed %d windows for %d checkpoints", len(wins), len(cycles))
	}
	return newWorker(s.cfg, s.newMachine()), wins
}

// goldenTraceFingerprint reads every checkpoint's golden run of cfg's
// schedule from the golden sweep and folds everything its consumers read
// into one FNV-64a hash: every touch record through the trace accessors,
// the per-cycle digests, the retire and illegal-fetch bits (as 64-cycle
// words), the cumulative event counts, the first exception and first
// monitor failure, and the checkpoint's valid in-flight instruction count.
func goldenTraceFingerprint(t *testing.T, cfg Config) uint64 {
	t.Helper()
	w, wins := scheduleWindows(t, cfg)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var cur *mem.Image
	for _, win := range wins {
		g := &win.g
		w.m.RestoreCheckpoint(&win.snap, win.mem, cur)
		cur = win.mem
		w.g = g
		tr := g.trace
		for k := uint64(0); k < uint64(tr.Len()); k++ {
			put(tr.FirstRead(k))
			put(tr.FirstSet(k))
			put(tr.LastRead(k))
			put(tr.LastSet(k))
			put(tr.LastCopy(k))
			put(tr.CopyDst(k))
			put(tr.ObsPre(k))
		}
		n := g.n
		for c := 1; c <= n; c++ {
			put(g.digest(c))
		}
		for _, flag := range []func(uint64) bool{g.retired, g.illegal} {
			for w0 := 0; w0 < n; w0 += 64 {
				var word uint64
				for c := w0 + 1; c <= min(w0+64, n); c++ {
					if flag(uint64(c)) {
						word |= 1 << (c - 1 - w0)
					}
				}
				put(word)
			}
		}
		for c := 1; c <= n; c++ {
			put(uint64(g.evCount(c)))
		}
		put(uint64(g.nEv))
		put(g.excAt)
		put(uint64(g.excMode))
		put(g.failAt)
		put(uint64(g.failMode))
		put(uint64(w.validInsns()))
	}
	return h.Sum64()
}

// TestGoldenTraceFingerprint pins the traced golden run bit for bit: the
// prover, dead-entry resolution and the convergence certificate all read
// the touch trace, so any pipeline or bit-store change that moves a single
// stamp, digest or monitor bit of a golden run shows up here. The
// constants were recorded before the traced stage loops and the untraced
// word-parallel loops became one body.
func TestGoldenTraceFingerprint(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"gzip", Config{Workload: workload.Gzip, Checkpoints: 3, Seed: 4242}, 0xcc5f679cebce3cf9},
		{"twolf-protected", Config{Workload: workload.Twolf, Checkpoints: 3, Seed: 4242,
			Protect: uarch.AllProtections()}, 0x2632cdba882910f7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := goldenTraceFingerprint(t, c.cfg); got != c.want {
				t.Errorf("golden trace fingerprint %#x, want %#x", got, c.want)
			}
		})
	}
}

// goldenEventsFingerprint reads every checkpoint's golden run of cfg's
// schedule from the golden sweep and folds into one FNV-64a hash, per
// checkpoint, every field of every golden retirement event and the machine
// state at each absolute convStride boundary inside the window: the state
// file's contents (recomputed from scratch, so a wrong word shows) and the
// memory digest. Boundaries are absolute cycles, so the hash does not
// depend on where the engine places its keyframes.
func goldenEventsFingerprint(t *testing.T, cfg Config) uint64 {
	t.Helper()
	w, wins := scheduleWindows(t, cfg)
	hz := uint64(w.cfg.Horizon)
	scratch := w.m.F
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var snap state.Snapshot
	for _, win := range wins {
		g := &win.g
		put(uint64(g.nEv))
		for i := 0; i < g.nEv; i++ {
			ev := g.event(i)
			put(ev.pc())
			put(ev.a)
			put(ev.data())
			put(ev.seq)
			put(uint64(ev.palFn()))
			put(uint64(ev.kind()))
			put(uint64(ev.small()))
		}
		for a := g.start + 1; a <= g.start+hz; a++ {
			if a%convStride != 0 {
				continue
			}
			kf := g.keyframe(a)
			if kf == nil {
				t.Fatalf("checkpoint %d: no keyframe at boundary %d", win.ck, a)
			}
			kf.delta.PatchInto(&snap, g.base)
			scratch.Restore(&snap)
			put(a)
			put(scratch.RecomputeDigest())
			put(kf.memDigest)
		}
	}
	return h.Sum64()
}

// TestGoldenEventsFingerprint pins every golden retirement event and the
// golden state at each absolute keyframe boundary: the trial monitor
// compares trials against the events, and the convergence certificate
// diffs trials against the keyframes.
func TestGoldenEventsFingerprint(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"gzip", Config{Workload: workload.Gzip, Checkpoints: 3, Seed: 4242}, 0xcc48a5d731aaae73},
		{"twolf-protected", Config{Workload: workload.Twolf, Checkpoints: 3, Seed: 4242,
			Protect: uarch.AllProtections()}, 0xc3f27d00bf88e7c},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := goldenEventsFingerprint(t, c.cfg); got != c.want {
				t.Errorf("golden events fingerprint %#x, want %#x", got, c.want)
			}
		})
	}
}

// keyframe returns g's keyframe after absolute cycle a, or nil when the
// window holds none there.
func (g *goldenRun) keyframe(a uint64) *keyframe {
	first := g.start + uint64(g.kfCycle(0))
	if a < first || (a-first)%convStride != 0 {
		return nil
	}
	ki := (a - first) / convStride
	if ki >= uint64(g.nKf) {
		return nil
	}
	return g.kf(int(ki))
}

// TestGoldenTraceMatchesPlainWalk: the golden sweep steps its windows
// traced, and the trace must be pure observation. Each window of a real
// schedule is replayed from its checkpoint image on a machine that walks
// plain — no journal, no sweep, so the file keeps no digest and Digest
// folds it from scratch — one walkTo cycle at a time, and every cycle must
// carry the composite digest, the flags and the retirement events the
// sweep recorded.
func TestGoldenTraceMatchesPlainWalk(t *testing.T) {
	w, wins := scheduleWindows(t, Config{Workload: workload.Gzip, Checkpoints: 3, Horizon: 1500, Seed: 4242})
	m := w.m
	var evs []goldenEvent
	var exc uint8
	m.OnRetire = func(ev uarch.RetireEvent) { evs = append(evs, goldenEventOf(ev)) }
	m.OnExc = func(ev uarch.ExcEvent) {
		if exc == 0 {
			exc = cycExc
			if ev.Kind == uarch.ExcDTLB {
				exc |= cycDTLB
			}
		}
	}
	var cur *mem.Image
	for _, win := range wins {
		g := &win.g
		m.RestoreCheckpoint(&win.snap, win.mem, cur)
		cur = win.mem
		if m.Cycle != g.start || m.F.Journaling() {
			t.Fatalf("checkpoint %d: machine at cycle %d (journaling %v), want plain at %d",
				win.ck, m.Cycle, m.F.Journaling(), g.start)
		}
		evs = evs[:0]
		for c := 1; c <= g.n; c++ {
			if m.Halted() {
				t.Fatalf("checkpoint %d: fixture halts at window cycle %d", win.ck, c)
			}
			exc = 0
			retired := m.Retired
			walkTo(m, m.Cycle+1)
			fl := exc
			if m.Retired > retired {
				fl |= cycRetired
			}
			if m.FetchStalledIllegal() {
				fl |= cycIllegal
			}
			if d := m.TraceDigest(); d != g.digest(c) {
				t.Fatalf("checkpoint %d cycle %d: plain digest %#x, sweep %#x", win.ck, c, d, g.digest(c))
			}
			if fl != g.cycle(c).flags || len(evs) != g.evCount(c) {
				t.Fatalf("checkpoint %d cycle %d: plain flags %#x after %d events, sweep %#x after %d",
					win.ck, c, fl, len(evs), g.cycle(c).flags, g.evCount(c))
			}
		}
		for i := range evs {
			if evs[i] != *g.event(i) {
				t.Fatalf("checkpoint %d: retirement event %d differs", win.ck, i)
			}
		}
	}
	m.OnRetire, m.OnExc = nil, nil
}

// TestGoldenTraceSameForEveryConfig: the sweep records the same windows,
// touch trace and keyframes included, whatever the configuration reads of
// them: the reference configuration (EarlyStopOff, ProveOff) and the
// default one get equal golden runs.
func TestGoldenTraceSameForEveryConfig(t *testing.T) {
	s, err := setupCampaign(Config{Workload: workload.Twolf, Checkpoints: 3, Horizon: 1500, Seed: 4242,
		Protect: uarch.AllProtections()})
	if err != nil {
		t.Fatal(err)
	}
	_, warm, cycles, err := s.schedule()
	if err != nil {
		t.Fatal(err)
	}
	ref := s.cfg
	ref.EarlyStop, ref.Prove = EarlyStopOff, ProveOff
	defWins := sweepWindows(s.cfg, walkStart(warm.Clone(), s.newMachine, cycles), cycles, nil)
	refWins := sweepWindows(ref, walkStart(warm, s.newMachine, cycles), cycles, nil)
	if len(defWins) != len(cycles) || len(refWins) != len(cycles) {
		t.Fatalf("default config swept %d windows, reference %d, for %d checkpoints", len(defWins), len(refWins), len(cycles))
	}
	for i := range defWins {
		goldenRunsEqual(t, fmt.Sprintf("checkpoint %d", i), &refWins[i].g, &defWins[i].g)
	}
}
