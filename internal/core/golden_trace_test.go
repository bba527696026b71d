package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"pipefault/internal/uarch"
	"pipefault/internal/workload"
)

// goldenTraceFingerprint walks cfg's checkpoint schedule on one machine,
// records the traced golden run at each checkpoint and folds everything its
// consumers read into one FNV-64a hash: every touch record through the
// trace accessors, the per-cycle digests, the retire and illegal-fetch
// bits, the cumulative event counts, the first exception and first monitor
// failure, and the checkpoint's valid in-flight instruction count.
func goldenTraceFingerprint(t *testing.T, cfg Config) uint64 {
	t.Helper()
	s, err := setupCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, cycles, err := s.schedule()
	if err != nil {
		t.Fatal(err)
	}
	m := s.newMachine()
	w := newWorker(s.cfg, m)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, cycle := range cycles {
		walkTo(m, cycle)
		g, validInsns := w.golden()
		if !g.traced || !g.conv {
			t.Fatal("golden run not traced with the certificate on")
		}
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
		for _, d := range g.digests {
			put(d)
		}
		for _, b := range g.retireBits {
			put(b)
		}
		for _, b := range g.illegalBits {
			put(b)
		}
		for _, n := range g.evCount {
			put(uint64(n))
		}
		put(uint64(len(g.events)))
		put(g.excAt)
		put(uint64(g.excMode))
		put(g.failAt)
		put(uint64(g.failMode))
		put(uint64(validInsns))
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
