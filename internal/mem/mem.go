// Package mem implements the sparse, paged physical memory used by both the
// functional simulator and the pipeline model.
//
// Memory is allocated lazily in fixed-size pages. The page set doubles as
// the model's TLB contents: the fault-injection campaigns preload "legal"
// pages from a fault-free reference run, and any faulty access outside that
// set is classified as an iTLB/dTLB miss (an SDC outcome in the paper).
//
// An undo log supports cheap trial rollback: a fault-injection trial runs
// against the checkpoint's memory image and is rolled back afterwards, so
// thousands of trials can share one image without copying it.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PageShift is log2 of the page size. 8 KiB pages, as on Alpha.
const PageShift = 13

// PageSize is the size of one memory page in bytes.
const PageSize = 1 << PageShift

const offsetMask = PageSize - 1

// Memory is a sparse 64-bit byte-addressable memory. The zero value is not
// usable; call New.
type Memory struct {
	pages map[uint64]*[PageSize]byte

	// digest is a position-keyed XOR over every nonzero byte of memory:
	// the XOR of memTerm(addr, b) for all addresses holding b != 0. Zero
	// bytes contribute nothing, so an absent page is digest-equal to an
	// all-zero resident page — the same equivalence Equal implements. The
	// digest is maintained incrementally by every mutation path (StoreByte,
	// RollbackTo, RestoreImage, Clone) and is a pure function of current
	// contents, making a whole-memory compare O(1). It composes with the
	// state.File digest into the campaign engine's per-cycle trajectory
	// trace.
	digest uint64

	// One-entry page translation cache; avoids a map lookup on the
	// overwhelmingly common same-page access pattern.
	//pipelint:clone-ok pure cache; Clone goes through New, which resets it empty
	lastVPN uint64
	//pipelint:clone-ok pure cache; Clone goes through New, which resets it empty
	lastPage *[PageSize]byte

	//pipelint:clone-ok undo log is per-run scaffolding; clones start with recording off
	undo []undoEntry
	//pipelint:clone-ok undo log is per-run scaffolding; clones start with recording off
	undoOn bool
	//pipelint:clone-ok undo log is per-run scaffolding; clones start with recording off
	undoBase int

	// Imaging state (BeginImaging/CaptureImage): imgCur holds the latest
	// frozen copy of every page ever captured, dirty tracks pages written
	// since the previous capture, and lastDirtyVPN is a one-entry cache so
	// the common same-page store pattern costs one compare, not one map op.
	// spare and spareImgs hold what ReleaseImage gave back, for later
	// captures to reuse.
	//pipelint:clone-ok imaging is per-run capture scaffolding; clones start with imaging off
	imgCur map[uint64]*frozenPage
	//pipelint:clone-ok imaging is per-run capture scaffolding; clones start with imaging off
	dirty map[uint64]struct{}
	//pipelint:clone-ok imaging is per-run capture scaffolding; clones start with imaging off
	dirtyOn bool
	//pipelint:clone-ok imaging is per-run capture scaffolding; clones start with imaging off
	lastDirtyVPN uint64
	//pipelint:clone-ok imaging is per-run capture scaffolding; clones start with imaging off
	spare []*frozenPage
	//pipelint:clone-ok imaging is per-run capture scaffolding; clones start with imaging off
	spareImgs []*Image
}

type undoEntry struct {
	addr uint64
	old  byte
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte), lastVPN: ^uint64(0)}
}

// page returns the page containing addr, allocating it if needed.
func (m *Memory) page(addr uint64) *[PageSize]byte {
	vpn := addr >> PageShift
	if vpn == m.lastVPN {
		return m.lastPage
	}
	p := m.pages[vpn]
	if p == nil {
		p = new([PageSize]byte)
		m.pages[vpn] = p
	}
	m.lastVPN, m.lastPage = vpn, p
	return p
}

// peek returns the page containing addr or nil without allocating.
func (m *Memory) peek(addr uint64) *[PageSize]byte {
	vpn := addr >> PageShift
	if vpn == m.lastVPN {
		return m.lastPage
	}
	return m.pages[vpn]
}

// LoadByte reads one byte. Unwritten memory reads as zero.
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.peek(addr)
	if p == nil {
		return 0
	}
	return p[addr&offsetMask]
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint64, v byte) {
	p := m.page(addr)
	if m.undoOn {
		m.undo = append(m.undo, undoEntry{addr: addr, old: p[addr&offsetMask]})
	}
	if m.dirtyOn {
		m.markDirty(addr >> PageShift)
	}
	old := p[addr&offsetMask]
	if old != v {
		m.digest ^= memTerm(addr, old) ^ memTerm(addr, v)
	}
	p[addr&offsetMask] = v
}

// memTerm hashes one (address, byte) pair for the memory digest. A zero
// byte contributes nothing, so untouched (absent) pages and explicitly
// zeroed bytes are indistinguishable — exactly the contents equivalence
// Equal implements. The mix is the SplitMix64 finalizer over the golden
// ratio-scaled address XOR the byte, matching the avalanche quality of the
// state.File entry digest it composes with.
func memTerm(addr uint64, b byte) uint64 {
	if b == 0 {
		return 0
	}
	x := addr*0x9E3779B97F4A7C15 ^ uint64(b)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Digest returns the whole-memory contents digest (see the field comment).
func (m *Memory) Digest() uint64 { return m.digest }

// RecomputeDigest folds the digest from scratch over current contents: the
// O(footprint) oracle for the incrementally maintained Digest. Tests and
// debugging only.
func (m *Memory) RecomputeDigest() uint64 {
	var d uint64
	for vpn, p := range m.pages {
		base := vpn << PageShift
		for off, b := range p {
			if b != 0 {
				d ^= memTerm(base+uint64(off), b)
			}
		}
	}
	return d
}

// markDirty records a page write for CaptureImage.
func (m *Memory) markDirty(vpn uint64) {
	if vpn == m.lastDirtyVPN {
		return
	}
	m.lastDirtyVPN = vpn
	m.dirty[vpn] = struct{}{}
}

// Read reads size bytes (1, 2, 4 or 8) in little-endian order. The access
// may straddle a page boundary.
func (m *Memory) Read(addr uint64, size int) uint64 {
	if addr&offsetMask <= PageSize-uint64(size) {
		p := m.peek(addr)
		if p == nil {
			return 0
		}
		off := addr & offsetMask
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off : off+2]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off : off+4]))
		case 8:
			return binary.LittleEndian.Uint64(p[off : off+8])
		}
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write writes size bytes (1, 2, 4 or 8) in little-endian order.
func (m *Memory) Write(addr uint64, v uint64, size int) {
	for i := 0; i < size; i++ {
		m.StoreByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// HasPage reports whether the page containing addr has been touched.
func (m *Memory) HasPage(addr uint64) bool {
	_, ok := m.pages[addr>>PageShift]
	return ok
}

// Pages returns the sorted set of touched virtual page numbers.
func (m *Memory) Pages() []uint64 {
	vpns := make([]uint64, 0, len(m.pages))
	for vpn := range m.pages {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	return vpns
}

// BeginUndo starts (or restarts) undo logging. Writes after this point are
// recorded and can be reverted with Rollback.
func (m *Memory) BeginUndo() {
	m.undoOn = true
	m.undoBase = len(m.undo)
}

// Mark returns a position in the undo log that RollbackTo can revert to.
func (m *Memory) Mark() int { return len(m.undo) }

// RollbackTo reverts all writes made since the given Mark, in reverse order.
func (m *Memory) RollbackTo(mark int) {
	for i := len(m.undo) - 1; i >= mark; i-- {
		e := m.undo[i]
		// Restore directly; do not re-log (but do keep imaging's dirty-page
		// view and the digest current: a rollback changes page contents like
		// any write).
		if m.dirtyOn {
			m.markDirty(e.addr >> PageShift)
		}
		p := m.page(e.addr)
		cur := p[e.addr&offsetMask]
		if cur != e.old {
			m.digest ^= memTerm(e.addr, cur) ^ memTerm(e.addr, e.old)
		}
		p[e.addr&offsetMask] = e.old
	}
	m.undo = m.undo[:mark]
}

// Rollback reverts all writes made since BeginUndo and stops logging.
func (m *Memory) Rollback() {
	m.RollbackTo(m.undoBase)
	m.undoOn = false
}

// UndoLen returns the current number of logged writes (for tests and
// instrumentation).
func (m *Memory) UndoLen() int { return len(m.undo) }

// Clone returns a deep copy of the memory image. The undo log is not cloned.
func (m *Memory) Clone() *Memory {
	c := New()
	for vpn, p := range m.pages {
		cp := new([PageSize]byte)
		*cp = *p
		c.pages[vpn] = cp
	}
	c.digest = m.digest
	return c
}

// Image is a portable point-in-time memory image: an immutable map from
// virtual page number to a frozen copy of that page's contents at capture
// time. Images captured from the same Memory share page copies for pages
// that did not change between captures, so a sequence of images costs
// O(pages dirtied) incremental space, and RestoreImage can diff two images
// by pointer comparison. Images transfer freely across Memory instances:
// any Memory can be overwritten to match any Image.
type Image struct {
	pages map[uint64]*frozenPage

	// digest is the capturing memory's contents digest at capture time.
	// RestoreImage makes the target's contents equal the image's, so it can
	// adopt this digest in O(1) instead of re-folding restored pages.
	digest uint64
}

// A frozenPage is one page copy of the images a Memory captured. refs
// counts the images that hold it, plus one while it is the Memory's
// latest copy of its page; only the capturing Memory's goroutine touches
// it. A copy no image holds is reused by a later capture.
type frozenPage struct {
	data [PageSize]byte
	refs int
}

// Digest returns the captured contents digest (see Memory.Digest).
func (im *Image) Digest() uint64 { return im.digest }

// PageCount returns the number of pages resident in the image.
func (im *Image) PageCount() int { return len(im.pages) }

// BeginImaging arms dirty-page tracking for CaptureImage. All currently
// resident pages count as dirty, so the first capture is a full image.
func (m *Memory) BeginImaging() {
	m.imgCur = make(map[uint64]*frozenPage, len(m.pages))
	m.dirty = make(map[uint64]struct{}, len(m.pages))
	for vpn := range m.pages {
		m.dirty[vpn] = struct{}{}
	}
	m.dirtyOn = true
	m.lastDirtyVPN = ^uint64(0)
}

// EndImaging stops dirty-page tracking and releases the imaging state.
// Previously captured Images remain valid (they own their page copies).
func (m *Memory) EndImaging() {
	m.imgCur = nil
	m.dirty = nil
	m.dirtyOn = false
	m.spare, m.spareImgs = nil, nil
}

// CaptureImage freezes the current contents into an Image. Only pages
// dirtied since the previous capture are copied; clean pages are shared
// with the previous image. BeginImaging must be active. The image and the
// page copies come from what ReleaseImage gave back, when there is any.
func (m *Memory) CaptureImage() *Image {
	if !m.dirtyOn {
		panic("mem: CaptureImage without BeginImaging")
	}
	for vpn := range m.dirty {
		if old := m.imgCur[vpn]; old != nil {
			m.unref(old)
		}
		var cp *frozenPage
		if n := len(m.spare); n > 0 {
			cp, m.spare = m.spare[n-1], m.spare[:n-1]
		} else {
			cp = new(frozenPage)
		}
		cp.data, cp.refs = *m.pages[vpn], 1
		m.imgCur[vpn] = cp
	}
	clear(m.dirty)
	m.lastDirtyVPN = ^uint64(0)
	var img *Image
	if n := len(m.spareImgs); n > 0 {
		img, m.spareImgs = m.spareImgs[n-1], m.spareImgs[:n-1]
	} else {
		img = &Image{pages: make(map[uint64]*frozenPage, len(m.imgCur))}
	}
	for vpn, p := range m.imgCur {
		img.pages[vpn] = p
		p.refs++
	}
	img.digest = m.digest
	return img
}

// ReleaseImage gives img, which m captured, back to m for later captures
// to reuse, with each page copy no other image holds. The caller
// guarantees nothing reads img any more: no later RestoreImage names it,
// as the image or as prev.
func (m *Memory) ReleaseImage(img *Image) {
	for _, p := range img.pages {
		m.unref(p)
	}
	clear(img.pages)
	m.spareImgs = append(m.spareImgs, img)
}

// unref drops one reference to p, keeping it for reuse once none is left.
func (m *Memory) unref(p *frozenPage) {
	if p.refs--; p.refs == 0 {
		m.spare = append(m.spare, p)
	}
}

// RestoreImage overwrites this memory's contents to match img. If prev is
// non-nil it must describe this memory's current contents (the image most
// recently restored or captured here, with all later writes rolled back);
// pages whose frozen copies are shared between prev and img are skipped,
// making the restore O(pages that differ) instead of O(footprint). With
// prev == nil, every page of img is copied and every other resident page
// is zeroed. The undo log does not record the restore, so callers must not
// have an undo span open across it.
func (m *Memory) RestoreImage(img, prev *Image) {
	for vpn, p := range img.pages {
		if prev != nil && prev.pages[vpn] == p {
			continue
		}
		dst := m.pages[vpn]
		if dst == nil {
			dst = new([PageSize]byte)
			m.pages[vpn] = dst
		}
		if m.dirtyOn {
			m.markDirty(vpn)
		}
		*dst = p.data
	}
	// Pages resident here but absent from img were all-zero at img's
	// capture time (pages are created on first write); zero them. With a
	// trusted prev only the pages prev names can differ.
	if prev != nil {
		for vpn := range prev.pages {
			if img.pages[vpn] == nil {
				m.zeroPage(vpn)
			}
		}
	} else {
		for vpn := range m.pages {
			if img.pages[vpn] == nil {
				m.zeroPage(vpn)
			}
		}
	}
	// Contents now equal the image's exactly, so the digest does too.
	m.digest = img.digest
}

// zeroPage clears one resident page (absent pages already read as zero).
func (m *Memory) zeroPage(vpn uint64) {
	if p := m.pages[vpn]; p != nil {
		if m.dirtyOn {
			m.markDirty(vpn)
		}
		*p = [PageSize]byte{}
	}
}

// Equal reports whether two memories have identical contents. Pages absent
// on one side compare equal to all-zero pages on the other.
func (m *Memory) Equal(o *Memory) bool {
	return m.diffAgainst(o) && o.diffAgainst(m)
}

func (m *Memory) diffAgainst(o *Memory) bool {
	for vpn, p := range m.pages {
		op := o.pages[vpn]
		if op == nil {
			if *p != ([PageSize]byte{}) {
				return false
			}
			continue
		}
		if *p != *op {
			return false
		}
	}
	return true
}

// String summarizes the memory for debugging.
func (m *Memory) String() string {
	return fmt.Sprintf("mem{%d pages, %d undo entries}", len(m.pages), len(m.undo))
}

// PageSet is an immutable set of legal virtual page numbers, standing in for
// preloaded TLB contents. Loaded images are a handful of contiguous
// segments, so the set is kept as sorted, coalesced [lo, hi] VPN runs: a
// membership probe is a short compare scan instead of a map hash, it is
// checked on every fetch and every load/store address, and the flat
// representation stays safely shareable across trial workers.
type PageSet struct {
	runs []pageRun
	n    int // total legal pages across runs
}

type pageRun struct {
	lo, hi uint64 // inclusive VPN bounds
}

// NewPageSet builds a PageSet from the pages currently present in m.
func NewPageSet(m *Memory) *PageSet {
	vpns := make([]uint64, 0, len(m.pages))
	for vpn := range m.pages {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	s := &PageSet{n: len(vpns)}
	for _, vpn := range vpns {
		if k := len(s.runs); k > 0 && s.runs[k-1].hi+1 == vpn {
			s.runs[k-1].hi = vpn
			continue
		}
		s.runs = append(s.runs, pageRun{lo: vpn, hi: vpn})
	}
	return s
}

// Contains reports whether the page holding addr is legal.
func (s *PageSet) Contains(addr uint64) bool {
	vpn := addr >> PageShift
	for _, r := range s.runs {
		if vpn <= r.hi {
			return vpn >= r.lo
		}
	}
	return false
}

// ContainsRange reports whether every byte of [addr, addr+size) is legal.
func (s *PageSet) ContainsRange(addr uint64, size int) bool {
	return s.Contains(addr) && s.Contains(addr+uint64(size)-1)
}

// Len returns the number of legal pages.
func (s *PageSet) Len() int { return s.n }
