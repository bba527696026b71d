package uarch

import (
	"math/bits"

	"pipefault/internal/isa"
	"pipefault/internal/state"
)

// writeback drains the register-file write ports: values reach the register
// file and scoreboard, consumers wake, ROB entries complete, and scheduler
// entries are freed.
func (m *Machine) writeback() {
	e := m.e
	// The body only clears wbValid bits, so the snapshot mask stays exact
	// across the walk.
	for w := e.lnWbValid.Word(0); w != 0; w &= w - 1 {
		m.wbDrainPort(bits.TrailingZeros64(w))
	}
	m.genPendingECC()
}

// wbDrainPort drains one occupied writeback port.
func (m *Machine) wbDrainPort(p int) {
	e := m.e
	e.wbValid.SetBool(p, false)
	if e.wbWrites.Bool(p) {
		dest := e.wbDest.Get(p)
		m.prfWrite(dest, e.wbValue.Get(p))
		m.wakeup(dest)
	}
	e.robDone.SetBool(int(e.wbRobTag.Get(p)%ROBSize), true)
	if e.wbHasSched.Bool(p) {
		m.freeSched(e.wbSchedIdx.Get(p))
	}
}

// retire commits up to RetireWidth instructions from the ROB head. It also
// runs the timeout-counter protection mechanism.
func (m *Machine) retire() {
	e := m.e
	retired := false
	if !m.Halted() {
		for n := 0; n < RetireWidth; n++ {
			cnt := e.robCount.Get(0)
			if cnt == 0 || cnt > ROBSize {
				break
			}
			h := int(e.robHead.Get(0)) % ROBSize
			if !e.robValid.Bool(h) || !e.robDone.Bool(h) {
				break
			}
			pc := e.robPC.Get(h) << 2

			if exc := ExcKind(e.robExc.Get(h)); exc != ExcNone {
				e.msHalted.SetBool(0, true)
				if m.OnExc != nil {
					m.OnExc(ExcEvent{Kind: exc, PC: pc})
				}
				break
			}

			ev := RetireEvent{PC: pc, Kind: RetOther, Seq: m.seqROB[h]}
			switch {
			case e.robIsPal.Bool(h):
				fn := uint32(e.robPalFn.Get(h))
				ev.Kind = RetPal
				ev.PalFn = fn
				ev.Value = m.prfRead(m.archRATRead(isa.RegA0))
				if fn == isa.PalHalt {
					e.msHalted.SetBool(0, true)
				}

			case e.robIsStore.Bool(h):
				if e.sbCount.Get(0) >= StoreBufSize {
					// Store buffer full: retirement stalls this cycle.
					goto timeout
				}
				si := int(e.sqHead.Get(0)) % SQSize
				addr := e.sqAddr.Get(si)
				data := e.sqData.Get(si)
				sizeLg := e.sqSize.Get(si)
				bi := (int(e.sbHead.Get(0)) + int(e.sbCount.Get(0))) % StoreBufSize
				e.sbAddr.Set(bi, addr)
				e.sbData.Set(bi, data)
				e.sbSize.Set(bi, sizeLg)
				e.sbCount.Set(0, e.sbCount.Get(0)+1)
				e.sqHead.Set(0, uint64(si+1)%SQSize)
				if c := e.sqCount.Get(0); c > 0 {
					e.sqCount.Set(0, c-1)
				}
				ev.Kind = RetStore
				ev.Addr = addr
				ev.Data = data
				ev.Size = uint8(1 << (sizeLg & 3))

			case e.robIsLoad.Bool(h):
				li := int(e.lqHead.Get(0)) % LQSize
				e.lqAddrV.SetBool(li, false)
				e.lqDone.SetBool(li, false)
				e.lqBusy.SetBool(li, false)
				e.lqHead.Set(0, uint64(li+1)%LQSize)
				if c := e.lqCount.Get(0); c > 0 {
					e.lqCount.Set(0, c-1)
				}
				ev.Kind = RetReg
				ev.Dest = uint8(e.robArchDest.Get(h))
				ev.Value = m.prfRead(m.robPhysDestRead(h))

			case e.robIsBranch.Bool(h):
				ev.Kind = RetBranch
				if e.robWrites.Bool(h) {
					ev.Kind = RetReg
					ev.Dest = uint8(e.robArchDest.Get(h))
					ev.Value = m.prfRead(m.robPhysDestRead(h))
				}

			case e.robWrites.Bool(h):
				ev.Kind = RetReg
				ev.Dest = uint8(e.robArchDest.Get(h))
				ev.Value = m.prfRead(m.robPhysDestRead(h))
			}

			// Commit the rename: architectural map and free lists.
			if e.robWrites.Bool(h) {
				d := int(e.robArchDest.Get(h)) & 31
				e.archRAT.Set(d, m.robPhysDestRead(h))
				if m.Cfg.Protect.PointerECC {
					m.genArchRATECC(d)
				}
				m.archFLPop()
				old := m.robOldPhysRead(h)
				m.archFLPushBack(old)
				m.specFLPushBack(old)
			}

			e.robValid.SetBool(h, false)
			e.robDone.SetBool(h, false)
			e.robHead.Set(0, uint64(h+1)%ROBSize)
			e.robCount.Set(0, cnt-1)
			m.Retired++
			retired = true
			if m.OnRetire != nil {
				m.OnRetire(ev)
			}
			if m.OnRetireSeq != nil {
				m.OnRetireSeq(ev.Seq)
			}
			if e.rcPending != nil && e.rcPending.Bool(0) &&
				uint64(h) == e.rcTag.Get(0)%ROBSize {
				// Drain recovery complete: restore renaming from the
				// architectural tables and resume fetch at the target.
				m.fullFlush(e.rcTarget.Get(0), "mispredict")
				break
			}
			if m.Halted() {
				break
			}
		}
	}

timeout:
	if m.Cfg.Protect.TimeoutFlush && !m.Halted() {
		if retired {
			m.e.toCnt.Set(0, 0)
		} else {
			c := m.e.toCnt.Get(0) + 1
			if c >= DeadlockCycles {
				m.timeoutFlush()
				m.e.toCnt.Set(0, 0)
			} else {
				m.e.toCnt.Set(0, c)
			}
		}
	}
}

// archRATRead reads the architectural rename map.
func (m *Machine) archRATRead(arch int) uint64 {
	if arch == isa.RegZero {
		return zeroPtr
	}
	if m.Cfg.Protect.PointerECC {
		return m.readArchRATECC(arch)
	}
	return m.e.archRAT.Get(arch)
}

func (m *Machine) robPhysDestRead(h int) uint64 {
	if m.Cfg.Protect.PointerECC {
		return m.readRobDestECC(h)
	}
	return m.e.robPhysDest.Get(h)
}

func (m *Machine) robOldPhysRead(h int) uint64 {
	if m.Cfg.Protect.PointerECC {
		return m.readRobOldECC(h)
	}
	return m.e.robOldPhys.Get(h)
}

// timeoutFlush restarts execution from the oldest unretired instruction.
func (m *Machine) timeoutFlush() {
	e := m.e
	newPC := e.fePC.Get(0)
	if c := e.robCount.Get(0); c > 0 && c <= ROBSize {
		h := int(e.robHead.Get(0)) % ROBSize
		if e.robValid.Bool(h) {
			newPC = e.robPC.Get(h)
		}
	}
	m.fullFlush(newPC, "timeout")
}

// recoverAfter squashes everything younger than the given ROB entry
// (branch misprediction) and redirects fetch to newPC (a word pc).
func (m *Machine) recoverAfter(tag uint64, newPC uint64) {
	m.recover(tag, newPC, false)
}

// recoverInclusive squashes the given entry and everything younger
// (memory-order violation) and refetches from newPC.
func (m *Machine) recoverInclusive(tag uint64, newPC uint64) {
	m.recover(tag, newPC, true)
}

// recover squashes all work younger than the recovery point and repairs the
// speculative rename state, using the configured recovery style.
func (m *Machine) recover(tag uint64, newPC uint64, inclusive bool) {
	e := m.e
	tag %= ROBSize
	walkback := m.Cfg.Recovery == RecoveryWalkback

	// Walk back from tail-1, undoing each entry.
	cnt := e.robCount.Get(0)
	if cnt > ROBSize {
		cnt = ROBSize
	}
	t := (e.robTail.Get(0) + ROBSize - 1) % ROBSize
	boundary := m.robAge(tag)
	for i := uint64(0); i < cnt; i++ {
		age := m.robAge(t)
		if age < boundary || (!inclusive && age == boundary) {
			break
		}
		m.undoROBEntry(int(t), walkback)
		t = (t + ROBSize - 1) % ROBSize
	}
	if inclusive {
		e.robTail.Set(0, tag)
		e.robCount.Set(0, boundary)
	} else {
		e.robTail.Set(0, (tag+1)%ROBSize)
		e.robCount.Set(0, boundary+1)
	}

	cut := boundary
	if inclusive && cut > 0 {
		cut--
	}
	m.squashYounger(cut)
	m.frontEndSquash(newPC)

	if walkback {
		return
	}
	// Arch-copy recovery: hold fetch until the youngest surviving
	// instruction retires, then restore renaming from architectural
	// state. An empty ROB allows immediate restoration.
	remaining := e.robCount.Get(0)
	if remaining == 0 || remaining > ROBSize {
		m.fullFlush(newPC, "mispredict")
		return
	}
	e.rcPending.SetBool(0, true)
	e.rcTarget.Set(0, newPC)
	e.rcTag.Set(0, (e.robTail.Get(0)+ROBSize-1)%ROBSize)
}

// undoROBEntry reverses one speculatively renamed instruction. The rename
// tables are only restored in walk-back recovery; arch-copy recovery
// rebuilds them wholesale when the drain completes.
func (m *Machine) undoROBEntry(t int, restoreRename bool) {
	e := m.e
	if !e.robValid.Bool(t) {
		return
	}
	if restoreRename && e.robWrites.Bool(t) {
		d := int(e.robArchDest.Get(t)) & 31
		m.ratWrite(d, m.robOldPhysRead(t))
		m.specFLPushFront(m.robPhysDestRead(t))
	}
	if e.robIsLoad.Bool(t) {
		lt := (e.lqTail.Get(0) + LQSize - 1) % LQSize
		e.lqAddrV.SetBool(int(lt), false)
		e.lqDone.SetBool(int(lt), false)
		e.lqBusy.SetBool(int(lt), false)
		e.lqTail.Set(0, lt)
		if c := e.lqCount.Get(0); c > 0 {
			e.lqCount.Set(0, c-1)
		}
	}
	if e.robIsStore.Bool(t) {
		st := (e.sqTail.Get(0) + SQSize - 1) % SQSize
		e.sqAddrV.SetBool(int(st), false)
		e.sqDataV.SetBool(int(st), false)
		e.sqTail.Set(0, st)
		if c := e.sqCount.Get(0); c > 0 {
			e.sqCount.Set(0, c-1)
		}
	}
	e.robValid.SetBool(t, false)
	e.robDone.SetBool(t, false)
}

// squashYounger kills scheduler entries and pipeline latches whose ROB age
// exceeds cut.
func (m *Machine) squashYounger(cut uint64) {
	e := m.e
	var kill uint64
	for w := e.lnIsValid.Word(0); w != 0; w &= w - 1 {
		s := bits.TrailingZeros64(w)
		if m.robAge(e.isRobTag.Get(s)) > cut {
			kill |= 1 << s
		}
	}
	e.lnIsValid.ClearMask(0, kill)
	for p := 0; p < IssueWidth; p++ {
		if e.ipValid.Bool(p) && m.robAge(e.ipRobTag.Get(p)) > cut {
			e.ipValid.SetBool(p, false)
		}
		if e.exValid.Bool(p) && m.robAge(e.exRobTag.Get(p)) > cut {
			e.exValid.SetBool(p, false)
		}
	}
	for i := 0; i < ComplexDepth; i++ {
		if e.cpValid.Bool(i) && m.robAge(e.cpRobTag.Get(i)) > cut {
			e.cpValid.SetBool(i, false)
		}
	}
	for p := 0; p < 2; p++ {
		if e.m1Valid.Bool(p) && m.robAge(e.m1RobTag.Get(p)) > cut {
			e.m1Valid.SetBool(p, false)
		}
		if e.m2Valid.Bool(p) && m.robAge(e.m2RobTag.Get(p)) > cut {
			e.m2Valid.SetBool(p, false)
		}
	}
	for p := 0; p < 7; p++ {
		if e.wbValid.Bool(p) && m.robAge(e.wbRobTag.Get(p)) > cut {
			e.wbValid.SetBool(p, false)
		}
	}
	e.lnSwValid.ClearMask(0, 1<<6-1)
}

// fullFlush discards all in-flight work and restores renaming from
// architectural state; the post-retirement store buffer is preserved and
// continues to drain (so store-buffer corruption survives a flush, as the
// paper observes).
func (m *Machine) fullFlush(newPC uint64, cause string) {
	e := m.e
	// Whole-structure drains go through the lane mask ops: one word rewrite
	// per structure untraced, the identical per-entry Set loop when traced.
	e.lnRobValid.ClearMask(0, ^uint64(0))
	e.lnRobDone.ClearMask(0, ^uint64(0))
	e.robHead.Set(0, 0)
	e.robTail.Set(0, 0)
	e.robCount.Set(0, 0)

	// The drain is pure data movement — architectural renaming state is
	// wholesale-copied over speculative state without the values steering
	// anything — so it goes through state.CopyEntry, which the golden touch
	// trace records as copy edges rather than behavioral reads and writes.
	// The convergence certificate depends on that distinction: a corrupted
	// arch entry for a register the program never uses is re-copied here on
	// every flush, and behavioral last-touch stamps from those copies would
	// veto every certificate involving the RAT or free list. Under pointer
	// ECC the drain reads through the correcting decoder and regenerates
	// check bits — a value transformation, not a copy — so that path keeps
	// the behavioral accessors.
	for i := 0; i < 32; i++ {
		if m.Cfg.Protect.PointerECC {
			e.specRAT.Set(i, m.readArchRATECC(i))
			m.genSpecRATECC(i)
			continue
		}
		state.CopyEntry(e.specRAT, i, e.archRAT, i)
	}
	for i := 0; i < FreeListSize; i++ {
		if m.Cfg.Protect.PointerECC {
			e.specFL.Set(i, e.archFL.Get(i))
			m.genSpecFLECC(i)
			continue
		}
		state.CopyEntry(e.specFL, i, e.archFL, i)
	}
	state.CopyEntry(e.specFLHead, 0, e.archFLHead, 0)
	state.CopyEntry(e.specFLCount, 0, e.archFLCount, 0)

	e.lnPrfReady.SetMask(0, ^uint64(0))
	e.lnPrfReady.SetMask(1, 1<<(NumPhysRegs-64)-1)
	e.lnIsValid.ClearMask(0, 1<<SchedSize-1)
	e.lnIpValid.ClearMask(0, 1<<IssueWidth-1)
	e.lnExValid.ClearMask(0, 1<<IssueWidth-1)
	e.lnCpValid.ClearMask(0, 1<<ComplexDepth-1)
	e.lnM1Valid.ClearMask(0, 3)
	e.lnM2Valid.ClearMask(0, 3)
	e.lnWbValid.ClearMask(0, 1<<7-1)
	e.lnSwValid.ClearMask(0, 1<<6-1)
	e.lqHead.Set(0, 0)
	e.lqTail.Set(0, 0)
	e.lqCount.Set(0, 0)
	e.lnLqAddrV.ClearMask(0, 1<<LQSize-1)
	e.lnLqDone.ClearMask(0, 1<<LQSize-1)
	e.lnLqBusy.ClearMask(0, 1<<LQSize-1)
	e.sqHead.Set(0, 0)
	e.sqTail.Set(0, 0)
	e.sqCount.Set(0, 0)
	e.lnSqAddrV.ClearMask(0, 1<<SQSize-1)
	e.lnSqDataV.ClearMask(0, 1<<SQSize-1)
	e.rcPending.SetBool(0, false)
	m.frontEndSquash(newPC)
	if m.OnFlush != nil {
		m.OnFlush(cause)
	}
}
