package uarch

import (
	"math/rand"
	"testing"

	"pipefault/internal/asm"
	"pipefault/internal/isa"
	"pipefault/internal/mem"
	"pipefault/internal/workload"
)

func tinyMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	prog, err := workload.Tiny.Program()
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, prog)
}

func TestStepDeterminism(t *testing.T) {
	run := func() uint64 {
		m := tinyMachine(t, Config{})
		for i := 0; i < 1500; i++ {
			m.Step()
		}
		return m.Digest()
	}
	if run() != run() {
		t.Error("two identical runs diverged")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := tinyMachine(t, Config{})
	for i := 0; i < 700; i++ {
		m.Step()
	}
	m.Mem.BeginUndo()
	snap := m.Snapshot()
	d0 := m.Digest()
	c0 := m.Cycle
	r0 := m.Retired

	digests := make([]uint64, 0, 300)
	for i := 0; i < 300; i++ {
		m.Step()
		digests = append(digests, m.Digest())
	}
	m.Restore(snap)
	m.Mem.Rollback()
	if m.Digest() != d0 || m.Cycle != c0 || m.Retired != r0 {
		t.Fatal("restore did not rewind machine state")
	}
	// Replay must reproduce the identical digest trajectory.
	for i := 0; i < 300; i++ {
		m.Step()
		if m.Digest() != digests[i] {
			t.Fatalf("replay diverged at step %d", i)
		}
	}
}

// TestBenignFlipConverges: flipping a bit in clearly dead state (an
// unallocated ROB entry's pc field) must reconverge with a golden run.
func TestBenignFlipConverges(t *testing.T) {
	golden := tinyMachine(t, Config{})
	injected := tinyMachine(t, Config{})
	for i := 0; i < 500; i++ {
		golden.Step()
		injected.Step()
	}
	if golden.Digest() != injected.Digest() {
		t.Fatal("identical machines diverged before injection")
	}
	// Find a ROB entry that is not allocated and flip its PC field.
	e := injected.e
	victim := -1
	for i := 0; i < ROBSize; i++ {
		if !e.robValid.Bool(i) {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Skip("ROB full at cycle 500")
	}
	e.robPC.Flip(victim, 13)
	if golden.Digest() == injected.Digest() {
		t.Fatal("flip not visible in digest")
	}
	converged := false
	for i := 0; i < 5000 && !converged; i++ {
		golden.Step()
		injected.Step()
		converged = golden.Digest() == injected.Digest()
	}
	if !converged {
		t.Error("dead-state flip never reconverged (entry should be overwritten)")
	}
}

// TestRegfileFlipCorrupts: flipping an architecturally live register value
// (the buffer base pointer, which is never rewritten) must corrupt the
// retired store stream relative to a golden run.
func TestRegfileFlipCorrupts(t *testing.T) {
	golden := tinyMachine(t, Config{})
	injected := tinyMachine(t, Config{})
	for i := 0; i < 500; i++ {
		golden.Step()
		injected.Step()
	}
	// s2 = r11 holds the buffer base for the whole run.
	phys := injected.e.specRAT.Get(11)
	if phys >= NumPhysRegs {
		t.Fatalf("bad mapping %d", phys)
	}
	injected.e.prfValue.Flip(int(phys), 3)

	var gEvents, iEvents []RetireEvent
	golden.OnRetire = func(ev RetireEvent) { gEvents = append(gEvents, ev) }
	injected.OnRetire = func(ev RetireEvent) { iEvents = append(iEvents, ev) }
	for i := 0; i < 2000; i++ {
		golden.Step()
		injected.Step()
	}
	n := len(gEvents)
	if len(iEvents) < n {
		n = len(iEvents)
	}
	if n == 0 {
		t.Fatal("no events to compare")
	}
	diverged := false
	for i := 0; i < n; i++ {
		if gEvents[i] != iEvents[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("live register flip did not corrupt the retired stream")
	}
}

// TestDeadlockFromScoreboardFlip: clearing a ready bit of a live physical
// register can deadlock the pipeline; the unprotected machine must stop
// retiring, and the timeout-protected machine must recover.
func TestDeadlockBehavior(t *testing.T) {
	deadlock := func(cfg Config) (stuck bool, m *Machine) {
		m = tinyMachine(t, cfg)
		for i := 0; i < 500; i++ {
			m.Step()
		}
		// Force every scoreboard bit to 0: nothing can issue. In-flight
		// work may still drain, so judge by the final 1500 cycles.
		for p := 0; p < NumPhysRegs; p++ {
			m.e.prfReady.SetBool(p, false)
		}
		for i := 0; i < 1500; i++ {
			m.Step()
		}
		before := m.Retired
		for i := 0; i < 1500; i++ {
			m.Step()
		}
		return m.Retired == before, m
	}
	if stuck, _ := deadlock(Config{}); !stuck {
		t.Error("unprotected machine kept retiring after scoreboard wipe")
	}
	if stuck, m := deadlock(Config{Protect: ProtectConfig{TimeoutFlush: true}}); stuck {
		t.Errorf("timeout flush failed to recover the pipeline (retired=%d)", m.Retired)
	}
}

// TestTimeoutProtectedStillCompletes: the timeout machine must reach the
// correct final output after recovery.
func TestTimeoutRecoveryCorrectness(t *testing.T) {
	m := tinyMachine(t, Config{Protect: ProtectConfig{TimeoutFlush: true}})
	for i := 0; i < 400; i++ {
		m.Step()
	}
	for p := 0; p < NumPhysRegs; p++ {
		m.e.prfReady.SetBool(p, false)
	}
	var out []uint64
	m.OnRetire = func(ev RetireEvent) {
		if ev.Kind == RetPal && ev.PalFn == isa.PalPutInt {
			out = append(out, ev.Value)
		}
	}
	m.Run(400_000)
	if !m.Halted() {
		t.Fatal("did not halt after timeout recovery")
	}
	if len(out) != 1 || out[0] != 500500 {
		t.Errorf("recovered run output = %v, want [500500]", out)
	}
}

// TestStoreBufferSurvivesFlush: a full flush must not drop committed stores.
func TestStoreBufferSurvivesFlush(t *testing.T) {
	prog, err := asm.Assemble(`
_start:
	ldiq $1, buf
	ldiq $2, 0xABCD
	stq  $2, 0($1)
	stq  $2, 8($1)
loop:
	addq $3, 1, $3
	cmplt $3, 200, $4
	bne  $4, loop
	halt
	.data
	.align 3
buf:
	.space 64
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{}, prog)
	// Run until both stores are committed into the store buffer.
	for i := 0; i < 40 && m.e.sbCount.Get(0) == 0; i++ {
		m.Step()
	}
	if m.e.sbCount.Get(0) == 0 {
		t.Skip("stores drained before flush could be tested")
	}
	m.fullFlush(m.e.robPC.Get(int(m.e.robHead.Get(0))), "test")
	m.Run(100_000)
	addr := prog.Symbols["buf"]
	if got := m.Mem.Read(addr, 8); got != 0xABCD {
		t.Errorf("store lost across flush: [buf]=%#x", got)
	}
}

func TestFetchStalledIllegal(t *testing.T) {
	prog, err := workload.Tiny.Program()
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{}, prog)
	for i := 0; i < 300; i++ {
		m.Step()
	}
	if m.FetchStalledIllegal() {
		t.Fatal("healthy machine reports iTLB stall")
	}
	// Redirect fetch to an unmapped page and drain the pipeline.
	m.e.fePC.Set(0, 0x7F00_0000>>2)
	m.frontEndSquash(0x7F00_0000 >> 2)
	stalled := false
	for i := 0; i < 2000; i++ {
		m.Step()
		if m.FetchStalledIllegal() {
			stalled = true
			break
		}
	}
	if !stalled {
		t.Error("iTLB stall never detected after redirect to unmapped page")
	}
}

// TestInjectionAlwaysSafe: flipping arbitrary random bits must never panic
// the simulator, whatever inconsistent state results.
func TestInjectionAlwaysSafe(t *testing.T) {
	prog, err := workload.Tiny.Program()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		m := New(Config{}, prog)
		for i := 0; i < 200+trial*10; i++ {
			m.Step()
		}
		for k := 0; k < 4; k++ { // multi-bit chaos
			m.F.RandomBit(rng, false).Flip()
		}
		m.Run(3000)
	}
}

// TestInjectionAlwaysSafeProtected: same with all protections enabled.
func TestInjectionAlwaysSafeProtected(t *testing.T) {
	prog, err := workload.Tiny.Program()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		m := New(Config{Protect: AllProtections()}, prog)
		for i := 0; i < 200+trial*13; i++ {
			m.Step()
		}
		for k := 0; k < 4; k++ {
			m.F.RandomBit(rng, false).Flip()
		}
		m.Run(3000)
	}
}

func TestInFlightSeqs(t *testing.T) {
	m := tinyMachine(t, Config{})
	for i := 0; i < 500; i++ {
		m.Step()
	}
	seqs := m.InFlightSeqs(nil)
	if len(seqs) == 0 {
		t.Fatal("no instructions in flight at cycle 500")
	}
	if len(seqs) > 132+2*DecodeWidth {
		t.Errorf("%d in flight, exceeds the paper's 132 in-flight bound (+decode slack)", len(seqs))
	}
	seen := map[uint64]bool{}
	for _, s := range seqs {
		if seen[s] {
			t.Fatalf("duplicate seqno %d", s)
		}
		seen[s] = true
	}
}

func TestHaltedFlagFreezesMachine(t *testing.T) {
	m := tinyMachine(t, Config{})
	for i := 0; i < 300; i++ {
		m.Step()
	}
	m.e.msHalted.SetBool(0, true)
	r := m.Retired
	for i := 0; i < 500; i++ {
		m.Step()
	}
	if m.Retired != r {
		t.Error("halted machine retired instructions")
	}
}

func TestNewOnMemorySharedImage(t *testing.T) {
	prog, err := workload.Tiny.Program()
	if err != nil {
		t.Fatal(err)
	}
	mm := mem.New()
	regs := prog.Load(mm)
	legal := mem.NewPageSet(mm)
	m := NewOnMemory(Config{}, mm, legal, prog.Entry, regs)
	m.Run(100_000)
	if !m.Halted() {
		t.Error("NewOnMemory machine did not complete")
	}
}

// TestCloneIndependence: a clone must start bit-identical to the original,
// evolve identically when stepped in lockstep, and diverge without
// affecting the original when perturbed.
func TestCloneIndependence(t *testing.T) {
	m := tinyMachine(t, Config{})
	for i := 0; i < 400; i++ {
		m.Step()
	}
	c := m.Clone()
	if c.Digest() != m.Digest() || c.Cycle != m.Cycle || c.Retired != m.Retired {
		t.Fatalf("clone differs at birth: %v vs %v", c, m)
	}
	if !c.Mem.Equal(m.Mem) {
		t.Fatal("clone memory differs at birth")
	}
	// Lockstep: identical per-cycle digests.
	for i := 0; i < 300; i++ {
		m.Step()
		c.Step()
		if c.Digest() != m.Digest() {
			t.Fatalf("lockstep divergence at cycle %d", m.Cycle)
		}
	}
	// Perturb the clone; the original must be unaffected.
	before := m.Digest()
	c.e.fePC.Set(0, c.e.fePC.Get(0)^0xfff)
	c.Mem.StoreByte(0x1000, 0xAB)
	if m.Digest() != before {
		t.Error("perturbing the clone changed the original's state")
	}
	if m.Mem.LoadByte(0x1000) == 0xAB {
		t.Error("perturbing the clone changed the original's memory")
	}
}

// TestPlainCloneDigestMatchesJournaled: a machine stepped plain (Set
// stores raw, no digest kept) and cloned at cycle N, then journaled, must
// hold the words and the digest of a machine journaled from reset to N:
// the clone's image carries the exact digest and BeginJournal re-seeds it.
func TestPlainCloneDigestMatchesJournaled(t *testing.T) {
	const n = 20_000
	newMachine := gzipMachines(t)
	plain, hashed := newMachine(), newMachine()
	hashed.BeginJournal()
	for plain.Cycle < n {
		plain.Step()
		hashed.Step()
	}
	c := plain.Clone()
	c.BeginJournal()
	if !c.F.Equal(hashed.F) {
		t.Fatal("plain stepping left different words than journaled stepping")
	}
	if c.Digest() != hashed.Digest() {
		t.Fatalf("journaled clone digest %#x != journaled-from-reset %#x", c.Digest(), hashed.Digest())
	}
	if d := hashed.F.RecomputeDigest(); hashed.Digest() != d {
		t.Fatalf("journaled-from-reset digest %#x != recomputed %#x", hashed.Digest(), d)
	}
	// Both now step hashed, in lockstep.
	for i := 0; i < 500; i++ {
		c.Step()
		hashed.Step()
		if c.Digest() != hashed.Digest() {
			t.Fatalf("lockstep divergence at cycle %d", c.Cycle)
		}
	}
}

// TestCloneRunsToCompletion: a clone taken mid-run finishes the program
// with the same architectural result trace as the original.
func TestCloneRunsToCompletion(t *testing.T) {
	m := tinyMachine(t, Config{})
	for i := 0; i < 500; i++ {
		m.Step()
	}
	c := m.Clone()
	m.Run(200_000)
	c.Run(200_000)
	if !m.Halted() || !c.Halted() {
		t.Fatal("machines did not halt")
	}
	if m.Cycle != c.Cycle || m.Retired != c.Retired {
		t.Errorf("end states differ: %v vs %v", m, c)
	}
}
