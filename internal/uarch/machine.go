package uarch

import (
	"fmt"

	"pipefault/internal/asm"
	"pipefault/internal/isa"
	"pipefault/internal/mem"
	"pipefault/internal/state"
)

// zeroPtr is the physical-register pointer encoding of the architectural
// zero register: reads return 0, writes are dropped. Pointer values in
// [NumPhysRegs, 127] behave as open rows (reads 0, writes dropped), which is
// how corrupted pointers manifest.
const zeroPtr = 127

// Machine is one instance of the pipeline model. All persistent
// microarchitectural state lives in F (and program state in Mem), so
// Snapshot/Restore and Digest are complete; Go fields are configuration,
// wiring and instrumentation shadows only.
type Machine struct {
	Cfg Config
	F   *state.File
	//pipelint:shadow-ok program memory is bit-store-adjacent: sparse pages with their own Snapshot/Digest path
	Mem *mem.Memory
	//pipelint:shadow-ok immutable legality map, shared (not copied) across clones
	Legal *mem.PageSet

	// OnRetire, if set, receives every retirement event.
	//pipelint:clone-ok observer wiring; Clone deliberately drops callbacks
	OnRetire func(RetireEvent)
	// OnExc, if set, receives exceptions that reach retirement.
	//pipelint:clone-ok observer wiring; Clone deliberately drops callbacks
	OnExc func(ExcEvent)
	// OnFlush, if set, is called on every full pipeline flush with the
	// cause ("timeout" or "parity").
	//pipelint:clone-ok observer wiring; Clone deliberately drops callbacks
	OnFlush func(cause string)

	//pipelint:shadow-ok cycle counter is instrumentation, never an injection target; Clone carries it
	Cycle uint64
	//pipelint:shadow-ok typed handles into F's elements, rebuilt from Cfg on Clone
	e *elems

	// Shadow sequence numbers: derived instrumentation for the paper's
	// Figure 6 (valid instructions in flight). The pipeline logic never
	// reads these.
	//pipelint:shadow-ok shadow seqno instrumentation; pipeline logic never reads it
	nextSeq uint64
	//pipelint:shadow-ok shadow seqno instrumentation; pipeline logic never reads it
	seqFQ [FetchQSize]uint64
	//pipelint:shadow-ok shadow seqno instrumentation; pipeline logic never reads it
	seqDE [DecodeWidth]uint64
	//pipelint:shadow-ok shadow seqno instrumentation; pipeline logic never reads it
	seqRN [RenameWidth]uint64
	//pipelint:shadow-ok shadow seqno instrumentation; pipeline logic never reads it
	seqROB [ROBSize]uint64
	// LastRetiredSeq tracks shadow seqnos as they retire.
	//pipelint:clone-ok observer wiring; Clone deliberately drops callbacks
	OnRetireSeq func(seq uint64)

	// Retire accounting for IPC instrumentation.
	//pipelint:shadow-ok retire counter is instrumentation, never an injection target; Clone carries it
	Retired uint64
}

// New builds a machine loaded with the given program on a fresh memory.
func New(cfg Config, prog *asm.Program) *Machine {
	m := mem.New()
	regs := prog.Load(m)
	mach := NewOnMemory(cfg, m, mem.NewPageSet(m), prog.Entry, regs)
	return mach
}

// NewOnMemory builds a machine over an existing memory image with the given
// legal page set, entry point and initial architectural registers.
func NewOnMemory(cfg Config, memory *mem.Memory, legal *mem.PageSet, entry uint64, regs [isa.NumArchRegs]uint64) *Machine {
	f := state.New()
	e := buildElems(f, cfg.Protect)
	f.Freeze()
	e.buildLanes()
	m := &Machine{Cfg: cfg, F: f, Mem: memory, Legal: legal, e: e}
	m.reset(entry, regs)
	return m
}

// Clone returns an independent machine with identical configuration and
// state: the state file contents, instrumentation shadows and memory image
// are deep-copied, so the clone and the original can step concurrently.
// The legal page set is shared (it is immutable after construction), event
// callbacks are not carried over, and neither the original's memory undo
// log nor an active bit-store journal is cloned — the clone's state file
// starts journal-free. Clone is how the parallel campaign engine hands a
// warmed-up machine to each worker.
func (m *Machine) Clone() *Machine {
	f := state.New()
	e := buildElems(f, m.Cfg.Protect)
	f.Freeze()
	e.buildLanes()
	c := &Machine{
		Cfg:     m.Cfg,
		F:       f,
		Mem:     m.Mem.Clone(),
		Legal:   m.Legal,
		e:       e,
		Cycle:   m.Cycle,
		nextSeq: m.nextSeq,
		seqFQ:   m.seqFQ,
		seqDE:   m.seqDE,
		seqRN:   m.seqRN,
		seqROB:  m.seqROB,
		Retired: m.Retired,
	}
	// Identical Protect config gives an identical element layout, so a
	// snapshot transfers directly between the two state files.
	c.F.Restore(m.F.Snapshot())
	return c
}

// reset initializes architectural and renaming state.
func (m *Machine) reset(entry uint64, regs [isa.NumArchRegs]uint64) {
	e := m.e
	e.fePC.Set(0, entry>>2)
	// Identity renaming: arch reg i -> phys i; free list holds 32..79.
	for i := 0; i < 32; i++ {
		e.specRAT.Set(i, uint64(i))
		e.archRAT.Set(i, uint64(i))
		e.prfValue.Set(i, regs[i])
	}
	for i := 0; i < FreeListSize; i++ {
		e.specFL.Set(i, uint64(32+i))
		e.archFL.Set(i, uint64(32+i))
	}
	e.specFLCount.Set(0, FreeListSize)
	e.archFLCount.Set(0, FreeListSize)
	e.lnPrfReady.SetMask(0, ^uint64(0))
	e.lnPrfReady.SetMask(1, 1<<(NumPhysRegs-64)-1)
	if m.Cfg.Protect.PointerECC {
		m.initPointerECC()
	}
	if m.Cfg.Protect.RegfileECC {
		for p := 0; p < NumPhysRegs; p++ {
			m.genRegECC(p)
		}
	}
}

// Halted reports whether the machine has architecturally halted.
func (m *Machine) Halted() bool { return m.e.msHalted.Bool(0) }

// Digest returns the whole-machine state digest.
func (m *Machine) Digest() uint64 { return m.F.Digest() }

// TraceDigest returns the composite trajectory digest: the state-file
// digest folded with the memory contents digest. Two machines with equal
// TraceDigests agree on everything that determines future behavior — every
// latch and RAM cell (File) and all of physical memory (Mem). The shadow
// instrumentation counters (Cycle, nextSeq, Retired, the seq* arrays) are
// deliberately excluded: pipeline logic never reads them (the pipelint
// shadowstate analyzer enforces this), so they cannot influence any future
// architectural or microarchitectural event; see DESIGN.md "Convergence
// termination" for the full argument.
func (m *Machine) TraceDigest() uint64 { return m.F.Digest() ^ m.Mem.Digest() }

// Step advances the machine one clock cycle. Stages are evaluated in
// reverse pipeline order so that same-cycle reads observe previous-cycle
// state, giving edge-triggered latch semantics. Golden runs and trials step
// through the same stage bodies: while a touch trace is attached, the
// bit-store accessors and lane ops stamp the reads and writes themselves.
func (m *Machine) Step() {
	m.retire()
	m.drainStoreBuffer()
	m.writeback()
	m.memory()
	m.execute()
	m.schedule()
	m.regread()
	m.rename()
	m.decode()
	m.fetch()
	m.Cycle++
}

// Run steps until the machine halts or maxCycles elapse; it returns the
// number of cycles executed.
func (m *Machine) Run(maxCycles uint64) uint64 {
	start := m.Cycle
	for !m.Halted() && m.Cycle-start < maxCycles {
		m.Step()
	}
	return m.Cycle - start
}

// Snapshot captures the machine (state file + instrumentation shadows).
// Memory is NOT captured; callers manage memory via undo logs. The state
// file is held whole (st), or as a delta against a base snapshot that
// several snapshots share (SnapshotDeltaInto).
type Snapshot struct {
	st      *state.Snapshot
	delta   state.Delta
	base    *state.Snapshot
	cycle   uint64
	nextSeq uint64
	retired uint64
	seqFQ   [FetchQSize]uint64
	seqDE   [DecodeWidth]uint64
	seqRN   [RenameWidth]uint64
	seqROB  [ROBSize]uint64
}

// Snapshot captures current machine state (excluding memory).
func (m *Machine) Snapshot() *Snapshot {
	return &Snapshot{
		st:      m.F.Snapshot(),
		cycle:   m.Cycle,
		nextSeq: m.nextSeq,
		retired: m.Retired,
		seqFQ:   m.seqFQ,
		seqDE:   m.seqDE,
		seqRN:   m.seqRN,
		seqROB:  m.seqROB,
	}
}

// SnapshotDeltaInto captures the machine into s, reusing its storage, with
// the state file as a delta against base. base must stay unchanged while
// s is in use: a snapshot of a nearby state differs from it in a small
// fraction of the file.
func (m *Machine) SnapshotDeltaInto(s *Snapshot, base *state.Snapshot) {
	m.F.DeltaInto(&s.delta, base)
	s.st, s.base = nil, base
	s.cycle = m.Cycle
	s.nextSeq = m.nextSeq
	s.retired = m.Retired
	s.seqFQ = m.seqFQ
	s.seqDE = m.seqDE
	s.seqRN = m.seqRN
	s.seqROB = m.seqROB
}

// Restore rewinds the machine to a snapshot (memory must be restored
// separately by the caller).
func (m *Machine) Restore(s *Snapshot) {
	if s.base != nil {
		m.F.RestoreDelta(&s.delta, s.base)
	} else {
		m.F.Restore(s.st)
	}
	m.Cycle = s.cycle
	m.nextSeq = s.nextSeq
	m.Retired = s.retired
	m.seqFQ = s.seqFQ
	m.seqDE = s.seqDE
	m.seqRN = s.seqRN
	m.seqROB = s.seqROB
}

// RestoreCheckpoint materializes a portable checkpoint image that may have
// been captured on a *different* machine instance: the snapshot overwrites
// the bit-store and instrumentation shadows (machines with the same
// Protect config share an element layout, so snapshots transfer directly),
// and the memory image overwrites program memory. prev, when non-nil, is
// the image currently materialized in this machine's memory — pages shared
// between prev and img are skipped, so hopping between nearby checkpoints
// costs O(pages that differ). Restoring with an active state journal or an
// open memory undo span is a lifecycle bug, exactly as for Restore.
func (m *Machine) RestoreCheckpoint(s *Snapshot, img, prev *mem.Image) {
	m.Restore(s)
	m.Mem.RestoreImage(img, prev)
}

// MarkPoint is a lightweight rewind point: a state.File journal mark plus
// the instrumentation shadows. Unlike a Snapshot it copies no machine
// state up front — RollbackTo replays only the words dirtied since Mark —
// so marking and rewinding a short trial is O(words touched), not
// O(machine state). Callers are expected to reuse one MarkPoint across
// many trials (Mark fills it in place).
type MarkPoint struct {
	st      state.Mark
	cycle   uint64
	nextSeq uint64
	retired uint64
	seqFQ   [FetchQSize]uint64
	seqDE   [DecodeWidth]uint64
	seqRN   [RenameWidth]uint64
	seqROB  [ROBSize]uint64
}

// BeginJournal starts undo journaling on the machine's state file. Memory
// journaling is separate (Mem.BeginUndo), since program memory already has
// its own undo log.
func (m *Machine) BeginJournal() { m.F.BeginJournal() }

// CommitJournal discards the state-file journal and stops logging.
func (m *Machine) CommitJournal() { m.F.CommitJournal() }

// Mark fills p with a rewind point for RollbackTo. BeginJournal must be
// active.
func (m *Machine) Mark(p *MarkPoint) {
	p.st = m.F.Mark()
	p.cycle = m.Cycle
	p.nextSeq = m.nextSeq
	p.retired = m.Retired
	p.seqFQ = m.seqFQ
	p.seqDE = m.seqDE
	p.seqRN = m.seqRN
	p.seqROB = m.seqROB
}

// RollbackTo rewinds the machine to a mark taken with Mark, replaying the
// state-file journal in reverse (memory must be rewound separately via
// Mem.RollbackTo). Marks obey stack discipline.
func (m *Machine) RollbackTo(p *MarkPoint) {
	m.F.RollbackTo(p.st)
	m.Cycle = p.cycle
	m.nextSeq = p.nextSeq
	m.Retired = p.retired
	m.seqFQ = p.seqFQ
	m.seqDE = p.seqDE
	m.seqRN = p.seqRN
	m.seqROB = p.seqROB
}

// InFlightSeqs appends to out the shadow sequence numbers of every
// instruction currently in flight (fetch queue, decode/rename latches,
// ROB), for the Figure 6 utilization analysis, and returns the result.
func (m *Machine) InFlightSeqs(out []uint64) []uint64 {
	e := m.e
	cnt := int(e.fqCount.Get(0))
	head := int(e.fqHead.Get(0))
	for i := 0; i < cnt && i < FetchQSize; i++ {
		out = append(out, m.seqFQ[(head+i)%FetchQSize])
	}
	for i := 0; i < DecodeWidth; i++ {
		if e.deValid.Bool(i) {
			out = append(out, m.seqDE[i])
		}
		if e.rnValid.Bool(i) {
			out = append(out, m.seqRN[i])
		}
	}
	for i := 0; i < ROBSize; i++ {
		if e.robValid.Bool(i) {
			out = append(out, m.seqROB[i])
		}
	}
	return out
}

// ROBOccupancy returns the number of allocated ROB entries.
func (m *Machine) ROBOccupancy() int { return int(m.e.robCount.Get(0)) }

// FetchStalledIllegal reports whether instruction fetch is stalled on a PC
// outside the legal page set with an empty pipeline: the committed-redirect
// iTLB-miss condition (classified itlb/SDC by the campaign).
func (m *Machine) FetchStalledIllegal() bool {
	e := m.e
	if e.robCount.Get(0) != 0 || e.fqCount.Get(0) != 0 || e.f2Valid.Bool(0) {
		return false
	}
	// A scalar loop, not lane words: the interleaved early exit across two
	// elements defines the reads a traced golden run stamps, and it covers
	// four entries of an otherwise empty pipeline.
	for i := 0; i < DecodeWidth; i++ {
		if e.deValid.Bool(i) || e.rnValid.Bool(i) {
			return false
		}
	}
	pc := e.fePC.Get(0) << 2
	return !m.Legal.ContainsRange(pc, isa.WordSize)
}

// --- small helpers ---

// robAge returns the age of a ROB tag relative to the current head
// (0 = oldest). Used for squash decisions.
func (m *Machine) robAge(tag uint64) uint64 {
	head := m.e.robHead.Get(0)
	return (tag + ROBSize - head) % ROBSize
}

// prfRead reads a physical register, treating out-of-range pointers
// (including the zeroPtr encoding) as open rows that read zero.
func (m *Machine) prfRead(ptr uint64) uint64 {
	if ptr >= NumPhysRegs {
		return 0
	}
	if m.Cfg.Protect.RegfileECC {
		return m.readRegECC(int(ptr))
	}
	return m.e.prfValue.Get(int(ptr))
}

// prfReadyAt reports scoreboard readiness; out-of-range pointers are always
// ready (they read zero).
func (m *Machine) prfReadyAt(ptr uint64) bool {
	if ptr >= NumPhysRegs {
		return true
	}
	return m.e.prfReady.Bool(int(ptr))
}

// prfWrite writes a physical register (dropped for out-of-range pointers)
// and marks it ready.
func (m *Machine) prfWrite(ptr uint64, v uint64) {
	if ptr >= NumPhysRegs {
		return
	}
	m.e.prfValue.Set(int(ptr), v)
	m.e.prfReady.SetBool(int(ptr), true)
	if m.Cfg.Protect.RegfileECC {
		m.pendRegECC(int(ptr))
	}
}

func (m *Machine) String() string {
	return fmt.Sprintf("machine{cycle=%d rob=%d retired=%d pc=%#x}",
		m.Cycle, m.ROBOccupancy(), m.Retired, m.e.fePC.Get(0)<<2)
}

// Utilization is an instantaneous occupancy sample of the major queueing
// structures (live entries / capacity), in the spirit of the
// architectural-vulnerability-factor analysis the paper corroborates.
type Utilization struct {
	ROB      float64
	Sched    float64
	LQ       float64
	SQ       float64
	FetchQ   float64
	StoreBuf float64
}

// Utilization samples current structure occupancies.
func (m *Machine) Utilization() Utilization {
	e := m.e
	clamp := func(v uint64, cap int) float64 {
		if v > uint64(cap) {
			v = uint64(cap)
		}
		return float64(v) / float64(cap)
	}
	sched := e.lnIsValid.CountRange(0, SchedSize)
	return Utilization{
		ROB:      clamp(e.robCount.Get(0), ROBSize),
		Sched:    float64(sched) / SchedSize,
		LQ:       clamp(e.lqCount.Get(0), LQSize),
		SQ:       clamp(e.sqCount.Get(0), SQSize),
		FetchQ:   clamp(e.fqCount.Get(0), FetchQSize),
		StoreBuf: clamp(e.sbCount.Get(0), StoreBufSize),
	}
}
