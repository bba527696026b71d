package uarch

import (
	"math/bits"

	"pipefault/internal/isa"
)

// portsForClass returns the candidate issue ports for an instruction class.
func portsForClass(c isa.Class) []int {
	switch c {
	case isa.ClassSimple:
		return simplePorts
	case isa.ClassComplex:
		return complexPorts
	case isa.ClassBranch:
		return branchPorts
	case isa.ClassLoad, isa.ClassStore:
		return aguPorts
	}
	return nil
}

var (
	simplePorts  = []int{PortSimple0, PortSimple1}
	complexPorts = []int{PortComplex}
	branchPorts  = []int{PortBranch}
	aguPorts     = []int{PortAGU0, PortAGU1}
)

// portMaskForClass mirrors portsForClass as a per-port bitmask, for the
// scheduler's hot selection loop.
func portMaskForClass(c isa.Class) uint8 {
	switch c {
	case isa.ClassSimple:
		return 1<<PortSimple0 | 1<<PortSimple1
	case isa.ClassComplex:
		return 1 << PortComplex
	case isa.ClassBranch:
		return 1 << PortBranch
	case isa.ClassLoad, isa.ClassStore:
		return 1<<PortAGU0 | 1<<PortAGU1
	}
	return 0
}

// schedule advances the speculative-wakeup delay line, then selects up to
// one ready instruction per issue port (oldest first) and moves it into the
// issue-port latch.
func (m *Machine) schedule() {
	e := m.e

	// Spec-wakeup delay line: broadcast the final stage, then shift.
	// Stages: slots {4,5} broadcast; {2,3} -> {4,5}; {0,1} -> {2,3}.
	for s := 4; s < 6; s++ {
		if e.swValid.Bool(s) {
			m.wakeup(e.swTag.Get(s))
		}
	}
	for s := 5; s >= 2; s-- {
		e.swValid.SetBool(s, e.swValid.Bool(s-2))
		e.swTag.Set(s, e.swTag.Get(s-2))
	}
	e.swValid.SetBool(0, false)
	e.swValid.SetBool(1, false)

	// Selection runs six oldest-first picks (one per port) over the same 32
	// entries, so gather each entry's eligibility, age and port mask once
	// up front instead of re-reading four latch bits per entry per port.
	// Issuing only flips isIssued, robHead is stable within the cycle, and
	// each port is visited once, so the cached view stays exact as long as
	// issued entries are cleared from the ready mask.
	//
	// Eligible: valid && !issued && s1Ready && s2Ready, each word read only
	// where the short-circuit chain reaches it.
	valid := e.lnIsValid.Word(0)
	live := valid &^ e.lnIsIssued.WordOf(0, valid)
	s1 := live & e.lnIsS1Ready.WordOf(0, live)
	ready := uint32(s1 & e.lnIsS2Ready.WordOf(0, s1))
	var (
		age   [SchedSize]uint64
		ports [SchedSize]uint8
	)
	for rm := ready; rm != 0; rm &= rm - 1 {
		s := bits.TrailingZeros32(rm)
		age[s] = m.robAge(e.isRobTag.Get(s))
		ports[s] = portMaskForClass(isa.Class(e.isClass.Get(s)))
	}

	// Per-port oldest-first selection.
	for port := 0; port < IssueWidth; port++ {
		if ready == 0 {
			break
		}
		if e.ipValid.Bool(port) {
			continue // register read stalled (should not normally happen)
		}
		best := -1
		bestAge := uint64(ROBSize)
		for rm := ready; rm != 0; rm &= rm - 1 {
			s := bits.TrailingZeros32(rm)
			if ports[s]>>port&1 == 0 {
				continue
			}
			if age[s] < bestAge {
				bestAge, best = age[s], s
			}
		}
		if best < 0 {
			continue
		}
		ready &^= 1 << best
		m.issueTo(port, best)
	}
}

// issueTo moves scheduler entry s into issue-port latch port.
func (m *Machine) issueTo(port, s int) {
	e := m.e
	e.isIssued.SetBool(s, true)
	e.ipValid.SetBool(port, true)
	e.ipInsn.Set(port, e.isInsn.Get(s))
	e.ipRobTag.Set(port, e.isRobTag.Get(s))
	// Scheduler pointer copies are deliberately unprotected even with
	// pointer ECC enabled (the paper leaves some fields uncovered to
	// protect the cycle time).
	dest := e.isDest.Get(s)
	e.ipDest.Set(port, dest)
	e.ipWrites.SetBool(port, e.isWrites.Bool(s))
	e.ipSrc1.Set(port, e.isSrc1.Get(s))
	e.ipSrc2.Set(port, e.isSrc2.Get(s))
	e.ipUseLit.SetBool(port, e.isUseLit.Bool(s))
	e.ipLit.Set(port, e.isLit.Get(s))
	e.ipPC.Set(port, e.isPC.Get(s))
	e.ipTaken.SetBool(port, e.isTaken.Bool(s))
	e.ipTarget.Set(port, e.isTarget.Get(s))
	e.ipRASPtr.Set(port, e.isRASPtr.Get(s))
	e.ipLSQIdx.Set(port, e.isLSQIdx.Get(s))
	e.ipSchedIdx.Set(port, uint64(s))

	// Speculative wakeup: an issued load broadcasts its destination tag
	// after a delay tuned to the cache-hit latency; a miss triggers
	// replay of the consumers issued in the shadow.
	if isa.Class(e.isClass.Get(s)) == isa.ClassLoad && e.isWrites.Bool(s) {
		slot := port - PortAGU0
		if slot >= 0 && slot < 2 {
			e.swValid.SetBool(slot, true)
			e.swTag.Set(slot, dest)
		}
	}
}

// wakeup marks scheduler sources ready for a produced destination tag.
func (m *Machine) wakeup(dest uint64) {
	if dest >= NumPhysRegs {
		return
	}
	e := m.e
	// Visit only live, un-issued entries; the body never writes isValid or
	// isIssued, so the snapshot mask stays exact across the walk.
	valid := e.lnIsValid.Word(0)
	for w := valid &^ e.lnIsIssued.WordOf(0, valid); w != 0; w &= w - 1 {
		s := bits.TrailingZeros64(w)
		if e.isSrc1.Get(s) == dest {
			e.isS1Ready.SetBool(s, true)
		}
		if e.isSrc2.Get(s) == dest && !e.isUseLit.Bool(s) {
			e.isS2Ready.SetBool(s, true)
		}
	}
}

// replayDependents is invoked when a load misses after speculatively waking
// its consumers: any entry that consumed the speculative tag but whose
// value is not actually available is returned to the waiting state, and its
// in-flight copies in the issue/execute latches are squashed.
func (m *Machine) replayDependents(dest uint64) {
	if dest >= NumPhysRegs || m.prfReadyAt(dest) {
		return
	}
	e := m.e
	// Cancel in-flight speculative wakeups of this tag.
	for s := 0; s < 6; s++ {
		if e.swValid.Bool(s) && e.swTag.Get(s) == dest {
			e.swValid.SetBool(s, false)
		}
	}
	// The body never writes isValid, so the snapshot mask stays exact.
	for w := e.lnIsValid.Word(0); w != 0; w &= w - 1 {
		m.replayEntry(bits.TrailingZeros64(w), dest)
	}
}

// replayEntry returns one live scheduler entry to the waiting state if it
// consumed the speculative tag, squashing its in-flight copies.
func (m *Machine) replayEntry(s int, dest uint64) {
	e := m.e
	dep := false
	if e.isSrc1.Get(s) == dest {
		e.isS1Ready.SetBool(s, false)
		dep = true
	}
	if e.isSrc2.Get(s) == dest && !e.isUseLit.Bool(s) {
		e.isS2Ready.SetBool(s, false)
		dep = true
	}
	if dep && e.isIssued.Bool(s) {
		// Replay: back to waiting, squash in-flight copies.
		e.isIssued.SetBool(s, false)
		for p := 0; p < IssueWidth; p++ {
			if e.ipValid.Bool(p) && int(e.ipSchedIdx.Get(p)) == s {
				e.ipValid.SetBool(p, false)
			}
			if e.exValid.Bool(p) && int(e.exSchedIdx.Get(p)) == s {
				e.exValid.SetBool(p, false)
			}
		}
	}
}

// replayUop returns an issued uop to the scheduler (bypass value missing at
// execute, or a structural conflict). The scheduler entry is still live; it
// re-arms the source-ready bits from the actual scoreboard.
func (m *Machine) replayUop(schedIdx uint64) {
	e := m.e
	s := int(schedIdx) % SchedSize
	if !e.isValid.Bool(s) {
		return // entry vanished (corruption); drop the uop
	}
	e.isIssued.SetBool(s, false)
	e.isS1Ready.SetBool(s, m.prfReadyAt(e.isSrc1.Get(s)))
	e.isS2Ready.SetBool(s, e.isUseLit.Bool(s) || m.prfReadyAt(e.isSrc2.Get(s)))
}

// regread moves issue-port latches into the execute latches, capturing
// operand values from the register file. Operands not yet ready are
// captured at execute through the bypass network instead.
func (m *Machine) regread() {
	e := m.e
	for p := 0; p < IssueWidth; p++ {
		if !e.ipValid.Bool(p) {
			continue
		}
		e.ipValid.SetBool(p, false)
		e.exValid.SetBool(p, true)
		e.exInsn.Set(p, e.ipInsn.Get(p))
		e.exRobTag.Set(p, e.ipRobTag.Get(p))
		e.exDest.Set(p, e.ipDest.Get(p))
		e.exWrites.SetBool(p, e.ipWrites.Bool(p))
		src1 := e.ipSrc1.Get(p)
		src2 := e.ipSrc2.Get(p)
		e.exSrc1.Set(p, src1)
		e.exSrc2.Set(p, src2)
		e.exPC.Set(p, e.ipPC.Get(p))
		e.exTaken.SetBool(p, e.ipTaken.Bool(p))
		e.exTarget.Set(p, e.ipTarget.Get(p))
		e.exRASPtr.Set(p, e.ipRASPtr.Get(p))
		e.exLSQIdx.Set(p, e.ipLSQIdx.Get(p))
		e.exSchedIdx.Set(p, e.ipSchedIdx.Get(p))

		if m.prfReadyAt(src1) {
			e.exA.Set(p, m.prfRead(src1))
			e.exAReady.SetBool(p, true)
		} else {
			e.exA.Set(p, 0)
			e.exAReady.SetBool(p, false)
		}
		switch {
		case e.ipUseLit.Bool(p):
			e.exB.Set(p, e.ipLit.Get(p))
			e.exBReady.SetBool(p, true)
		case m.prfReadyAt(src2):
			e.exB.Set(p, m.prfRead(src2))
			e.exBReady.SetBool(p, true)
		default:
			e.exB.Set(p, 0)
			e.exBReady.SetBool(p, false)
		}
	}
}
