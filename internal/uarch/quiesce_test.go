package uarch

import (
	"testing"

	"pipefault/internal/workload"
)

// quiescedMachine runs Tiny to its architectural halt and then steps until
// the machine reports a write-free fixed point.
func quiescedMachine(t *testing.T) *Machine {
	t.Helper()
	prog, err := workload.Tiny.Program()
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{}, prog)
	m.Run(1_000_000)
	if !m.Halted() {
		t.Fatal("Tiny did not halt")
	}
	for i := 0; i < 1000 && !m.Quiescent(); i++ {
		m.Step()
	}
	if !m.Quiescent() {
		t.Fatal("halted machine never quiesced within 1000 cycles")
	}
	return m
}

// TestQuiescentFastPathIsExact: once a machine quiesces, further Steps must
// advance only the cycle counter — digest, write count and retire count are
// frozen, exactly as a full stage evaluation of a fixed point would leave
// them.
func TestQuiescentFastPathIsExact(t *testing.T) {
	m := quiescedMachine(t)
	d, wc, ret, cyc := m.Digest(), m.F.WriteCount(), m.Retired, m.Cycle
	for i := 0; i < 100; i++ {
		m.Step()
	}
	if m.Cycle != cyc+100 {
		t.Errorf("Cycle = %d, want %d", m.Cycle, cyc+100)
	}
	if m.Digest() != d || m.F.WriteCount() != wc || m.Retired != ret {
		t.Error("quiescent Steps changed machine state")
	}
	if !m.Quiescent() {
		t.Error("machine left the fixed point without a write")
	}
}

// TestQuiescenceInvalidatedByFlip: any external Set — an injected bit flip
// in particular — moves the WriteCount and must knock the machine off its
// known fixed point so the next Step re-evaluates the stages.
func TestQuiescenceInvalidatedByFlip(t *testing.T) {
	m := quiescedMachine(t)
	// ms.halted is 1 on a halted machine; flipping it un-halts the machine,
	// which a memoized no-op Step would miss entirely.
	m.F.Elem("ms.halted").Flip(0, 0)
	if m.Quiescent() {
		t.Fatal("Quiescent() still true after a flip")
	}
	if m.Halted() {
		t.Fatal("flip did not clear the halt latch")
	}
	wc := m.F.WriteCount()
	m.Step() // full evaluation: the un-halted front end fetches again
	if m.F.WriteCount() == wc {
		t.Error("Step after un-halting flip wrote nothing; stages were skipped")
	}
}

// TestQuiescenceInvalidatedByRestore: Restore bypasses Set (and therefore
// WriteCount), so it must clear the fixed-point memo explicitly.
func TestQuiescenceInvalidatedByRestore(t *testing.T) {
	m := quiescedMachine(t)
	m.Restore(m.Snapshot())
	if m.Quiescent() {
		t.Error("Quiescent() true immediately after Restore")
	}
}

// lockedMachine builds a quiescent machine that is NOT halted: un-halt a
// quiesced one and point fetch at an unmapped pc, so every stage is a
// write-free no-op forever (the shape of a locked-up trial). Run's bulk
// advance only fires here — a halted machine exits Run before the check.
func lockedMachine(t *testing.T) *Machine {
	t.Helper()
	m := quiescedMachine(t)
	m.F.Elem("ms.halted").Set(0, 0)
	m.fullFlush(1<<40, "test") // redirect fetch outside every legal range
	for i := 0; i < 1000 && !m.Quiescent(); i++ {
		m.Step()
	}
	if !m.Quiescent() || m.Halted() {
		t.Fatal("stalled machine did not reach a non-halted fixed point")
	}
	return m
}

// TestRunBulkAdvanceIsExact: Run skips the per-cycle loop entirely once the
// machine is quiescent, so its cycle accounting and final state must be
// bit-identical to stepping the same span one cycle at a time.
func TestRunBulkAdvanceIsExact(t *testing.T) {
	m := lockedMachine(t)
	// Clone both sides: Clone zeroes the write counter and quiescence memo,
	// so each copy re-derives the fixed point from one real Step.
	stepped, bulk := m.Clone(), m.Clone()
	if stepped.Cycle != bulk.Cycle || stepped.Digest() != bulk.Digest() {
		t.Fatal("Clone diverged before the experiment")
	}

	const span = 12345
	for i := 0; i < span; i++ {
		stepped.Step()
	}
	if ran := bulk.Run(span); ran != span {
		t.Errorf("Run(%d) on a quiescent machine = %d", span, ran)
	}
	if bulk.Cycle != stepped.Cycle {
		t.Errorf("bulk Cycle = %d, stepped Cycle = %d", bulk.Cycle, stepped.Cycle)
	}
	if bulk.Digest() != stepped.Digest() || bulk.F.WriteCount() != stepped.F.WriteCount() ||
		bulk.Retired != stepped.Retired {
		t.Error("bulk advance and per-cycle stepping disagree on machine state")
	}

	// A second Run from the fixed point must charge exactly the asked-for
	// cycles again — the bulk path cannot over- or under-run the budget.
	before := bulk.Cycle
	if ran := bulk.Run(7); ran != 7 || bulk.Cycle != before+7 {
		t.Errorf("Run(7) = %d, Cycle %d -> %d", ran, before, bulk.Cycle)
	}
}

// TestRunBulkAdvanceDisabledWhileTracing: golden runs consume per-cycle
// trace stamps, so a traced Run must take the per-cycle path even at a
// fixed point (Step itself still fast-paths nothing while traced — see
// TestQuiescenceFastPathDisabledWhileTracing).
func TestRunBulkAdvanceDisabledWhileTracing(t *testing.T) {
	m := lockedMachine(t)
	tr := m.F.NewTouchTrace()
	m.F.StartTrace(tr)
	m.F.TraceCycle(1)
	ret := m.Retired
	if ran := m.Run(50); ran != 50 {
		t.Errorf("traced Run(50) = %d", ran)
	}
	m.F.StopTrace()
	if m.Retired != ret {
		t.Error("traced Run at a fixed point retired instructions")
	}
	reads := 0
	for k := 0; k < tr.Len(); k++ {
		if tr.FirstRead(uint64(k)) != 0 {
			reads++
		}
	}
	if reads == 0 {
		t.Error("traced Run recorded no reads; the bulk path ran under trace")
	}
}

// TestQuiescenceFastPathDisabledWhileTracing: a golden run must observe
// every read a full evaluation performs, so an attached touch trace forces
// the slow path even at a fixed point.
func TestQuiescenceFastPathDisabledWhileTracing(t *testing.T) {
	m := quiescedMachine(t)
	tr := m.F.NewTouchTrace()
	m.F.StartTrace(tr)
	m.F.TraceCycle(1)
	m.Step()
	m.F.StopTrace()
	reads := 0
	for k := 0; k < tr.Len(); k++ {
		if tr.FirstRead(uint64(k)) != 0 {
			reads++
		}
	}
	if reads == 0 {
		t.Error("traced Step at a fixed point recorded no reads; the fast path was not disabled")
	}
}
