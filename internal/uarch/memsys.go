package uarch

import (
	"math/bits"

	"pipefault/internal/isa"
)

// --- data cache (timing only; data lives in main memory) ---

func (m *Machine) dcProbe(addr uint64) bool {
	e := m.e
	line := addr >> LineShift
	set := int(line % DCacheSets)
	tag := line >> 9 & ((1 << 54) - 1)
	for w := 0; w < DCacheWays; w++ {
		i := set*DCacheWays + w
		if e.dcValid.Bool(i) && e.dcTag.Get(i) == tag {
			e.dcLRU.Set(set, uint64(w))
			return true
		}
	}
	return false
}

func (m *Machine) dcFill(addr uint64) {
	e := m.e
	line := addr >> LineShift
	set := int(line % DCacheSets)
	tag := line >> 9 & ((1 << 54) - 1)
	w := int(e.dcLRU.Get(set)) ^ 1
	i := set*DCacheWays + w
	e.dcValid.SetBool(i, true)
	e.dcTag.Set(i, tag)
	e.dcLRU.Set(set, uint64(w))
}

// loadValue reads memory for a completing load, applying size truncation
// and LDL sign extension.
func loadValue(m *Machine, addr uint64, sizeLg uint64, raw uint64, useRaw bool) uint64 {
	size := 1 << (sizeLg & 3)
	v := raw
	if !useRaw {
		v = m.Mem.Read(addr, size)
	} else if size < 8 {
		v &= uint64(1)<<(8*uint(size)) - 1
	}
	if size == 4 {
		v = uint64(int64(int32(uint32(v)))) // longword loads sign-extend
	}
	return v
}

// overlap reports whether two byte ranges intersect.
func overlap(a1 uint64, s1 int, a2 uint64, s2 int) bool {
	return a1 < a2+uint64(s2) && a2 < a1+uint64(s1)
}

// eqObsMask returns the bits of v whose single-bit flip changes the outcome
// of the predicate v == want: all bits when equal, the lone differing bit
// when Hamming distance is one, no bits otherwise. Used as a GetObs
// observation mask at address-compare read sites so the constprop proof rule
// can clear bits the comparison provably never notices.
func eqObsMask(v, want uint64) uint64 {
	if d := v ^ want; d != 0 {
		if d&(d-1) == 0 {
			return d
		}
		return 0
	}
	return ^uint64(0)
}

// ovObsMask returns the bits of v whose single-bit flip changes
// overlap(v, s1, a2, s2). overlap is symmetric in its two ranges, so this
// covers reads where the traced address is either operand. Only evaluated
// while a touch trace is attached (GetObs invokes the observation closure
// on golden runs alone), so the 64-probe loop is off the trial hot path.
func ovObsMask(v uint64, s1 int, a2 uint64, s2 int) uint64 {
	base := overlap(v, s1, a2, s2)
	var mask uint64
	for b := uint(0); b < 64; b++ {
		if overlap(v^1<<b, s1, a2, s2) != base {
			mask |= 1 << b
		}
	}
	return mask
}

// --- the memory pipeline ---

// memory advances M2 (completion), the miss-handling registers, then M1
// (forwarding / dependence checks / cache probe), and finally injects
// blocked-load retries into free M1 slots.
func (m *Machine) memory() {
	m.memM2()
	m.memMHR()
	m.memM1()
	m.memRetry()
}

// memM2 completes loads: forwarded data, cache hits, or MHR allocation on a
// miss.
func (m *Machine) memM2() {
	e := m.e
	for p := 0; p < 2; p++ {
		if !e.m2Valid.Bool(p) {
			continue
		}
		e.m2Valid.SetBool(p, false)
		if !e.m2IsLoad.Bool(p) {
			continue
		}
		addr := e.m2Addr.Get(p)
		sizeLg := e.m2Size.Get(p)
		lqIdx := int(e.m2LSQIdx.Get(p)) % LQSize
		tag := e.m2RobTag.Get(p) % ROBSize
		dest := e.m2Dest.Get(p)
		schedIdx := e.m2SchedIdx.Get(p)

		if e.m2Fwd.Bool(p) {
			v := loadValue(m, addr, sizeLg, e.m2Data.Get(p), true)
			m.completeLoad(p, lqIdx, tag, dest, e.m2Writes.Bool(p), schedIdx, v)
			continue
		}
		if m.dcProbe(addr) {
			v := loadValue(m, addr, sizeLg, 0, false)
			m.completeLoad(p, lqIdx, tag, dest, e.m2Writes.Bool(p), schedIdx, v)
			continue
		}
		// Miss: allocate a (non-coalescing) miss handling register. The
		// consumers woken speculatively must replay.
		m.replayDependents(dest)
		slot := e.lnMhrValid.FirstClear(0, NumMHR)
		if slot < 0 {
			e.lqBusy.SetBool(lqIdx, false) // retry later
			continue
		}
		e.mhrValid.SetBool(slot, true)
		e.mhrAddr.Set(slot, addr)
		e.mhrCnt.Set(slot, DCacheMissCyc-2) // two cycles already spent
		e.mhrLQIdx.Set(slot, uint64(lqIdx))
	}
}

// completeLoad routes a finished load to a memory writeback port.
func (m *Machine) completeLoad(p, lqIdx int, tag, dest uint64, writes bool, schedIdx uint64, v uint64) {
	e := m.e
	if !m.writeWB(PortAGU0+p, v, dest, writes, tag, schedIdx, true) {
		// Writeback port conflict: retry the whole access.
		e.lqBusy.SetBool(lqIdx, false)
		m.replayDependents(dest)
		return
	}
	e.lqDone.SetBool(lqIdx, true)
	e.lqBusy.SetBool(lqIdx, false)
}

// memMHR counts down outstanding misses; an expired entry fills the cache
// line and, if its load queue entry still matches, completes the load
// through the fill writeback port (one fill per cycle).
func (m *Machine) memMHR() {
	e := m.e
	filled := false
	// The body only clears mhrValid bits, so the snapshot mask stays exact.
	for w := e.lnMhrValid.Word(0); w != 0; w &= w - 1 {
		m.mhrTick(bits.TrailingZeros64(w), &filled)
	}
}

// mhrTick advances one occupied miss handling register.
func (m *Machine) mhrTick(i int, filled *bool) {
	e := m.e
	cnt := e.mhrCnt.Get(i)
	if cnt > 0 {
		e.mhrCnt.Set(i, cnt-1)
		return
	}
	if *filled {
		return // one fill per cycle; try again next cycle
	}
	*filled = true
	addr := e.mhrAddr.Get(i)
	m.dcFill(addr)
	e.mhrValid.SetBool(i, false)

	// Complete the waiting load if its queue entry is still live and
	// still refers to this line (it may have been squashed/reused).
	lqIdx := int(e.mhrLQIdx.Get(i)) % LQSize
	if !m.lqEntryLive(lqIdx) || e.lqDone.Bool(lqIdx) || !e.lqAddrV.Bool(lqIdx) ||
		!e.lqBusy.Bool(lqIdx) || e.lqAddr.Get(lqIdx)>>LineShift != addr>>LineShift {
		return
	}
	tag := e.lqRobTag.Get(lqIdx) % ROBSize
	dest := e.lqDest.Get(lqIdx)
	v := loadValue(m, e.lqAddr.Get(lqIdx), e.lqSize.Get(lqIdx), 0, false)
	if m.writeWB(6, v, dest, dest < NumPhysRegs, tag, e.lqSchedIdx.Get(lqIdx), true) {
		e.lqDone.SetBool(lqIdx, true)
		e.lqBusy.SetBool(lqIdx, false)
	} else {
		e.lqBusy.SetBool(lqIdx, false) // retry through the normal path
	}
}

// lqEntryLive reports whether an LQ slot is within the live head..tail
// window.
func (m *Machine) lqEntryLive(idx int) bool {
	e := m.e
	cnt := e.lqCount.Get(0)
	if cnt == 0 || cnt > LQSize {
		return cnt > LQSize // corrupted count: treat everything as live
	}
	head := e.lqHead.Get(0) % LQSize
	off := (uint64(idx) + LQSize - head) % LQSize
	return off < cnt
}

// memM1 performs store-to-load forwarding, memory dependence checks and
// starts the cache access.
func (m *Machine) memM1() {
	e := m.e
	for p := 0; p < 2; p++ {
		if !e.m1Valid.Bool(p) {
			continue
		}
		e.m1Valid.SetBool(p, false)
		if !e.m1IsLoad.Bool(p) {
			continue
		}
		addr := e.m1Addr.Get(p)
		sizeLg := e.m1Size.Get(p)
		size := 1 << (sizeLg & 3)
		lqIdx := int(e.m1LSQIdx.Get(p)) % LQSize
		tag := e.m1RobTag.Get(p) % ROBSize
		myAge := m.robAge(tag)

		block := false
		fwd := false
		var fwdData uint64
		fwdIdx := 0

		// Scan the store queue for older stores, youngest-first.
		scnt := int(e.sqCount.Get(0))
		if scnt > SQSize {
			scnt = SQSize
		}
		head := int(e.sqHead.Get(0)) % SQSize
		for k := scnt - 1; k >= 0; k-- {
			si := (head + k) % SQSize
			sAge := m.robAge(e.sqRobTag.Get(si) % ROBSize)
			if sAge >= myAge {
				continue // younger than (or is) the load
			}
			if !e.sqAddrV.Bool(si) {
				// Unknown older store address: consult the memory
				// dependence predictor.
				if m.ssPredictsDependence(tag) {
					block = true
					break
				}
				continue // speculate past it
			}
			// The store address feeds only the overlap and equality
			// predicates here, so record the exact bits those predicates
			// can notice: the constprop rule proves flips of the other
			// bits benign without simulation. (Sites that move the address
			// into data — retire, drain — keep the all-observing Get.)
			sSize := 1 << (e.sqSize.Get(si) & 3)
			sAddr := e.sqAddr.GetObs(si, func(v uint64) uint64 {
				return ovObsMask(v, sSize, addr, size) | eqObsMask(v, addr)
			})
			if !overlap(addr, size, sAddr, sSize) {
				continue
			}
			if sAddr == addr && sSize >= size && e.sqDataV.Bool(si) {
				fwd, fwdData, fwdIdx = true, e.sqData.Get(si), si
			} else {
				block = true // partial overlap: wait for the store to drain
			}
			break
		}

		// The post-retirement store buffer holds committed stores that
		// have not reached the cache yet.
		if !block && !fwd {
			bcnt := int(e.sbCount.Get(0))
			if bcnt > StoreBufSize {
				bcnt = StoreBufSize
			}
			bhead := int(e.sbHead.Get(0)) % StoreBufSize
			for k := bcnt - 1; k >= 0; k-- {
				bi := (bhead + k) % StoreBufSize
				// Predicate-only read, like the store-queue scan above.
				bSize := 1 << (e.sbSize.Get(bi) & 3)
				bAddr := e.sbAddr.GetObs(bi, func(v uint64) uint64 {
					return ovObsMask(v, bSize, addr, size) | eqObsMask(v, addr)
				})
				if !overlap(addr, size, bAddr, bSize) {
					continue
				}
				if bAddr == addr && bSize >= size {
					fwd, fwdData = true, e.sbData.Get(bi)
				} else {
					block = true
				}
				break
			}
		}

		if block {
			e.lqBusy.SetBool(lqIdx, false) // retry when stores resolve
			m.replayDependents(e.m1Dest.Get(p))
			continue
		}

		e.m2Valid.SetBool(p, true)
		e.m2IsLoad.SetBool(p, true)
		e.m2Addr.Set(p, addr)
		e.m2Size.Set(p, sizeLg)
		e.m2Dest.Set(p, e.m1Dest.Get(p))
		e.m2Writes.SetBool(p, e.m1Writes.Bool(p))
		e.m2RobTag.Set(p, tag)
		e.m2LSQIdx.Set(p, uint64(lqIdx))
		e.m2SchedIdx.Set(p, e.m1SchedIdx.Get(p))
		e.m2Fwd.SetBool(p, fwd)
		e.m2Data.Set(p, fwdData)
		if fwd {
			e.lqFwd.SetBool(lqIdx, true)
			e.lqFwdIdx.Set(lqIdx, uint64(fwdIdx))
		}
	}
}

// ssPredictsDependence consults the store-set style predictor for the load
// in the given ROB entry.
func (m *Machine) ssPredictsDependence(robTag uint64) bool {
	pc := m.e.robPC.Get(int(robTag % ROBSize))
	return m.e.ssWait.Bool(int(pc % StoreSetTab))
}

// ssTrainDependence records a memory-order violation for the load PC.
func (m *Machine) ssTrainDependence(loadPC uint64) {
	m.e.ssWait.SetBool(int(loadPC%StoreSetTab), true)
}

// memRetry re-injects blocked loads (forward-blocked, MHR-full or port
// conflicts) into free M1 slots.
func (m *Machine) memRetry() {
	e := m.e
	cnt := int(e.lqCount.Get(0))
	if cnt > LQSize {
		cnt = LQSize
	}
	head := int(e.lqHead.Get(0)) % LQSize
	for p := 0; p < 2; p++ {
		if e.m1Valid.Bool(p) {
			continue
		}
		for k := 0; k < cnt; k++ {
			i := (head + k) % LQSize
			if !e.lqAddrV.Bool(i) || e.lqDone.Bool(i) || e.lqBusy.Bool(i) {
				continue
			}
			e.lqBusy.SetBool(i, true)
			e.m1Valid.SetBool(p, true)
			e.m1IsLoad.SetBool(p, true)
			e.m1Addr.Set(p, e.lqAddr.Get(i))
			e.m1Size.Set(p, e.lqSize.Get(i))
			e.m1Dest.Set(p, e.lqDest.Get(i))
			e.m1Writes.SetBool(p, e.lqDest.Get(i) < NumPhysRegs)
			e.m1RobTag.Set(p, e.lqRobTag.Get(i))
			e.m1LSQIdx.Set(p, uint64(i))
			e.m1SchedIdx.Set(p, e.lqSchedIdx.Get(i))
			break
		}
	}
}

// executeMemOp handles address generation on an AGU port.
func (m *Machine) executeMemOp(p int, inst isa.Inst, a, b uint64) {
	e := m.e
	tag := int(e.exRobTag.Get(p) % ROBSize)
	schedIdx := e.exSchedIdx.Get(p)
	addr := a + uint64(int64(inst.Disp))
	size := inst.Op.MemBytes()
	sizeLg := uint64(0)
	for 1<<sizeLg < size {
		sizeLg++
	}

	raiseExc := func(k ExcKind) {
		e.robExc.Set(tag, uint64(k))
		e.robDone.SetBool(tag, true)
		m.freeSched(schedIdx)
	}
	if size == 0 {
		raiseExc(ExcIllegal)
		return
	}
	if addr%uint64(size) != 0 {
		raiseExc(ExcUnaligned)
		return
	}
	if !m.Legal.ContainsRange(addr, size) {
		raiseExc(ExcDTLB)
		return
	}

	if inst.Op.IsStore() {
		sqIdx := int(e.exLSQIdx.Get(p)) % SQSize
		e.sqAddr.Set(sqIdx, addr)
		e.sqData.Set(sqIdx, b)
		e.sqSize.Set(sqIdx, sizeLg)
		e.sqAddrV.SetBool(sqIdx, true)
		e.sqDataV.SetBool(sqIdx, true)
		m.checkOrderViolation(uint64(tag), addr, size)
		e.robDone.SetBool(tag, true)
		m.freeSched(schedIdx)
		return
	}

	// Load: record in the LQ and start the cache access.
	lqIdx := int(e.exLSQIdx.Get(p)) % LQSize
	e.lqAddr.Set(lqIdx, addr)
	e.lqSize.Set(lqIdx, sizeLg)
	e.lqAddrV.SetBool(lqIdx, true)
	e.lqBusy.SetBool(lqIdx, true)
	e.lqSchedIdx.Set(lqIdx, schedIdx)

	slot := p - PortAGU0
	if slot < 0 || slot > 1 || m.e.m1Valid.Bool(slot) {
		// Misrouted or occupied by a retry: fall back to the retry path.
		e.lqBusy.SetBool(lqIdx, false)
		return
	}
	e.m1Valid.SetBool(slot, true)
	e.m1IsLoad.SetBool(slot, true)
	e.m1Addr.Set(slot, addr)
	e.m1Size.Set(slot, sizeLg)
	e.m1Dest.Set(slot, e.exDest.Get(p))
	e.m1Writes.SetBool(slot, e.exWrites.Bool(p))
	e.m1RobTag.Set(slot, uint64(tag))
	e.m1LSQIdx.Set(slot, uint64(lqIdx))
	e.m1SchedIdx.Set(slot, schedIdx)
}

// checkOrderViolation detects younger loads that executed before an older
// store to an overlapping address: a memory-order violation. Recovery
// refetches from the load; the store-set predictor learns the dependence.
func (m *Machine) checkOrderViolation(storeTag uint64, addr uint64, size int) {
	e := m.e
	sAge := m.robAge(storeTag)
	cnt := int(e.lqCount.Get(0))
	if cnt > LQSize {
		cnt = LQSize
	}
	head := int(e.lqHead.Get(0)) % LQSize
	victim := -1
	victimAge := uint64(ROBSize)
	for k := 0; k < cnt; k++ {
		i := (head + k) % LQSize
		if !e.lqAddrV.Bool(i) || (!e.lqDone.Bool(i) && !e.lqBusy.Bool(i)) {
			continue
		}
		lAge := m.robAge(e.lqRobTag.Get(i) % ROBSize)
		if lAge <= sAge {
			continue // older than the store
		}
		lSize := 1 << (e.lqSize.Get(i) & 3)
		// Predicate-only read: the load address steers only this overlap
		// check (overlap is symmetric, so ovObsMask applies directly).
		lAddr := e.lqAddr.GetObs(i, func(v uint64) uint64 {
			return ovObsMask(v, lSize, addr, size)
		})
		if !overlap(addr, size, lAddr, lSize) {
			continue
		}
		// Forwarded loads may have already gotten this store's data.
		if e.lqFwd.Bool(i) {
			continue
		}
		if lAge < victimAge {
			victimAge, victim = lAge, i
		}
	}
	if victim < 0 {
		return
	}
	loadTag := e.lqRobTag.Get(victim) % ROBSize
	loadPC := e.robPC.Get(int(loadTag))
	m.ssTrainDependence(loadPC)
	m.recoverInclusive(loadTag, loadPC)
}

// drainStoreBuffer writes one committed store per cycle to memory.
func (m *Machine) drainStoreBuffer() {
	e := m.e
	cnt := e.sbCount.Get(0)
	if cnt == 0 || cnt > StoreBufSize {
		return
	}
	h := int(e.sbHead.Get(0)) % StoreBufSize
	addr := e.sbAddr.Get(h)
	size := 1 << (e.sbSize.Get(h) & 3)
	m.Mem.Write(addr, e.sbData.Get(h), size)
	e.sbHead.Set(0, uint64(h+1)%StoreBufSize)
	e.sbCount.Set(0, cnt-1)
}
