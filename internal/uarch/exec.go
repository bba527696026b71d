package uarch

import (
	"math/bits"

	"pipefault/internal/isa"
)

// execute evaluates the execution units. The branch ALU resolves first so
// that a misprediction squashes younger work in the other latches before it
// executes.
func (m *Machine) execute() {
	m.advanceComplexPipe()
	m.executePort(PortBranch)
	m.executePort(PortSimple0)
	m.executePort(PortSimple1)
	m.executePort(PortComplex)
	m.executePort(PortAGU0)
	m.executePort(PortAGU1)
}

// executePort consumes the execute latch of one port.
func (m *Machine) executePort(p int) {
	e := m.e
	if !e.exValid.Bool(p) {
		return
	}
	e.exValid.SetBool(p, false)

	inst := isa.Decode(uint32(e.exInsn.Get(p)))
	tag := e.exRobTag.Get(p) % ROBSize
	schedIdx := e.exSchedIdx.Get(p)

	// Operand capture through the bypass network for values that were not
	// ready at register read. If a value is still unavailable (a replayed
	// producer), the uop itself replays.
	a := e.exA.Get(p)
	if !e.exAReady.Bool(p) {
		src := e.exSrc1.Get(p)
		if !m.prfReadyAt(src) {
			m.replayUop(schedIdx)
			return
		}
		a = m.prfRead(src)
	}
	b := e.exB.Get(p)
	if !e.exBReady.Bool(p) {
		src := e.exSrc2.Get(p)
		if !m.prfReadyAt(src) {
			m.replayUop(schedIdx)
			return
		}
		b = m.prfRead(src)
	}

	op := inst.Op
	switch {
	case op.IsControl() && op != isa.OpCallPal:
		m.executeBranch(p, inst, a, b)

	case op.IsLoad() || op.IsStore():
		m.executeMemOp(p, inst, a, b)

	case op == isa.OpNop || op == isa.OpIllegal || op == isa.OpCallPal:
		// Misrouted into the scheduler by a corrupted control word:
		// complete it benignly.
		e.robDone.SetBool(int(tag), true)
		m.freeSched(schedIdx)

	case inst.Class == isa.ClassComplex && op >= isa.OpMull && op <= isa.OpUmulh:
		m.enterComplexPipe(p, inst, a, b)

	default:
		// Simple operate (also covers LDA/LDAH and misrouted ops).
		var result uint64
		switch op {
		case isa.OpLda:
			result = a + uint64(int64(inst.Disp))
		case isa.OpLdah:
			result = a + uint64(int64(inst.Disp)<<16)
		default:
			old := uint64(0)
			if inst.IsCmov() {
				oldPtr := e.robOldPhys.Get(int(tag))
				if !m.prfReadyAt(oldPtr) {
					m.replayUop(schedIdx)
					return
				}
				old = m.prfRead(oldPtr)
			}
			result = isa.EvalOperate(op, a, b, old)
		}
		if !m.writeWB(p, result, e.exDest.Get(p), e.exWrites.Bool(p), tag, schedIdx, true) {
			m.replayUop(schedIdx) // writeback port conflict
		}
	}
}

// writeWB claims a writeback port latch; it returns false if occupied.
func (m *Machine) writeWB(wbPort int, value, dest uint64, writes bool, tag, schedIdx uint64, hasSched bool) bool {
	e := m.e
	if e.wbValid.Bool(wbPort) {
		return false
	}
	e.wbValid.SetBool(wbPort, true)
	e.wbValue.Set(wbPort, value)
	e.wbDest.Set(wbPort, dest)
	e.wbWrites.SetBool(wbPort, writes)
	e.wbRobTag.Set(wbPort, tag)
	e.wbSchedIdx.Set(wbPort, schedIdx)
	e.wbHasSched.SetBool(wbPort, hasSched)
	return true
}

// freeSched releases a scheduler entry.
func (m *Machine) freeSched(schedIdx uint64) {
	m.e.isValid.SetBool(int(schedIdx)%SchedSize, false)
}

// executeBranch resolves a control transfer on the branch ALU.
func (m *Machine) executeBranch(p int, inst isa.Inst, a, b uint64) {
	e := m.e
	tag := e.exRobTag.Get(p) % ROBSize
	pc := e.exPC.Get(p)
	schedIdx := e.exSchedIdx.Get(p)

	taken := true
	target := pc + 1
	var result uint64
	writes := e.exWrites.Bool(p)
	switch {
	case inst.Op.IsCondBranch():
		taken = isa.CondTaken(inst.Op, a)
		if taken {
			target = pc + 1 + uint64(int64(inst.Disp))
		}
		m.updateCond(pc, taken)
	case inst.Op.IsUncondBranch():
		target = pc + 1 + uint64(int64(inst.Disp))
		result = (pc + 1) << 2
	default: // jump group: the target register is source operand a
		target = (a >> 2) & ((1 << PCBits) - 1)
		result = (pc + 1) << 2
		if inst.Op != isa.OpRet {
			m.btbInsert(pc, target)
		}
	}

	actualNext := target
	if !taken {
		actualNext = pc + 1
	}
	predNext := pc + 1
	if e.exTaken.Bool(p) {
		predNext = e.exTarget.Get(p)
	}

	if !m.writeWB(PortBranch, result, e.exDest.Get(p), writes, tag, schedIdx, true) {
		m.replayUop(schedIdx)
		return
	}

	if actualNext != predNext {
		m.recoverAfter(tag, actualNext)
		// Return-address-stack pointer recovery, then re-apply this
		// instruction's own push/pop.
		e.rasPtr.Set(0, e.exRASPtr.Get(p))
		if inst.Op.IsCall() {
			m.rasPush(pc + 1)
		} else if inst.Op.IsReturn() {
			m.rasPop()
		}
	}
}

// enterComplexPipe inserts a multiply into the complex ALU pipeline.
func (m *Machine) enterComplexPipe(p int, inst isa.Inst, a, b uint64) {
	e := m.e
	slot := e.lnCpValid.FirstClear(0, ComplexDepth)
	if slot < 0 {
		m.replayUop(e.exSchedIdx.Get(p))
		return
	}
	e.cpValid.SetBool(slot, true)
	e.cpValue.Set(slot, isa.EvalOperate(inst.Op, a, b, 0))
	e.cpDest.Set(slot, e.exDest.Get(p))
	e.cpWrites.SetBool(slot, e.exWrites.Bool(p))
	e.cpRobTag.Set(slot, e.exRobTag.Get(p))
	e.cpSchedIdx.Set(slot, e.exSchedIdx.Get(p))
	e.cpCnt.Set(slot, uint64(isa.ComplexLatency(inst.Op)-1))
}

// advanceComplexPipe counts down in-flight multiplies and retires finished
// ones through the complex ALU's writeback port.
func (m *Machine) advanceComplexPipe() {
	e := m.e
	// The body only clears cpValid bits, so the snapshot mask stays exact.
	for w := e.lnCpValid.Word(0); w != 0; w &= w - 1 {
		m.complexSlotTick(bits.TrailingZeros64(w))
	}
}

// complexSlotTick advances one occupied complex-pipe slot.
func (m *Machine) complexSlotTick(i int) {
	e := m.e
	cnt := e.cpCnt.Get(i)
	if cnt > 0 {
		e.cpCnt.Set(i, cnt-1)
		return
	}
	if m.writeWB(PortComplex, e.cpValue.Get(i), e.cpDest.Get(i),
		e.cpWrites.Bool(i), e.cpRobTag.Get(i)%ROBSize, e.cpSchedIdx.Get(i), true) {
		e.cpValid.SetBool(i, false)
	}
	// Port busy: hold the slot (result buffer behaviour).
}
