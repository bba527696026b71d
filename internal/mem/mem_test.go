package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	tests := []struct {
		addr uint64
		v    uint64
		size int
	}{
		{0x1000, 0xAB, 1},
		{0x1001, 0xBEEF, 2},
		{0x1004, 0xDEADBEEF, 4},
		{0x1008, 0x0123456789ABCDEF, 8},
		{PageSize - 1, 0x42, 1},           // last byte of page 0
		{PageSize - 4, 0xCAFEBABE, 4},     // within-page tail
		{2*PageSize - 3, 0x1122334455, 8}, // straddles a page boundary
		{1 << 40, 0x77, 1},                // sparse high address
	}
	for _, tt := range tests {
		m.Write(tt.addr, tt.v, tt.size)
		mask := ^uint64(0)
		if tt.size < 8 {
			mask = 1<<(8*tt.size) - 1
		}
		if got := m.Read(tt.addr, tt.size); got != tt.v&mask {
			t.Errorf("Read(%#x, %d) = %#x, want %#x", tt.addr, tt.size, got, tt.v&mask)
		}
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := New()
	if got := m.Read(0x123456, 8); got != 0 {
		t.Errorf("unwritten quadword = %#x, want 0", got)
	}
	if m.HasPage(0x123456) {
		t.Error("read must not allocate a page")
	}
}

func TestLittleEndian(t *testing.T) {
	m := New()
	m.Write(0x2000, 0x0102030405060708, 8)
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	for i, w := range want {
		if got := m.LoadByte(0x2000 + uint64(i)); got != w {
			t.Errorf("byte %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestUndoRollback(t *testing.T) {
	m := New()
	m.Write(0x1000, 0x1111, 8)
	m.BeginUndo()
	m.Write(0x1000, 0x2222, 8)
	m.Write(0x9000, 0x3333, 8) // new page under undo
	if got := m.Read(0x1000, 8); got != 0x2222 {
		t.Fatalf("post-write read = %#x", got)
	}
	m.Rollback()
	if got := m.Read(0x1000, 8); got != 0x1111 {
		t.Errorf("after rollback Read(0x1000) = %#x, want 0x1111", got)
	}
	if got := m.Read(0x9000, 8); got != 0 {
		t.Errorf("after rollback Read(0x9000) = %#x, want 0", got)
	}
}

func TestUndoNestedMarks(t *testing.T) {
	m := New()
	m.BeginUndo()
	m.Write(0x1000, 1, 8)
	mark := m.Mark()
	m.Write(0x1000, 2, 8)
	m.Write(0x1008, 3, 8)
	m.RollbackTo(mark)
	if got := m.Read(0x1000, 8); got != 1 {
		t.Errorf("after partial rollback = %d, want 1", got)
	}
	if got := m.Read(0x1008, 8); got != 0 {
		t.Errorf("after partial rollback neighbour = %d, want 0", got)
	}
	m.Rollback()
	if got := m.Read(0x1000, 8); got != 0 {
		t.Errorf("after full rollback = %d, want 0", got)
	}
}

// TestUndoRollbackProperty: any random sequence of writes under undo logging
// must roll back to a state indistinguishable from the pre-log state.
func TestUndoRollbackProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		// Pre-populate.
		for i := 0; i < 32; i++ {
			m.Write(uint64(rng.Intn(4*PageSize)), rng.Uint64(), 8)
		}
		before := m.Clone()
		m.BeginUndo()
		for i := 0; i < int(n); i++ {
			sizes := []int{1, 2, 4, 8}
			m.Write(uint64(rng.Intn(6*PageSize)), rng.Uint64(), sizes[rng.Intn(4)])
		}
		m.Rollback()
		return m.Equal(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New()
	m.Write(0x1000, 42, 8)
	c := m.Clone()
	m.Write(0x1000, 43, 8)
	if got := c.Read(0x1000, 8); got != 42 {
		t.Errorf("clone sees mutation: %d", got)
	}
	if !c.Equal(c.Clone()) {
		t.Error("clone not equal to itself")
	}
}

func TestEqualTreatsZeroPagesAsAbsent(t *testing.T) {
	a := New()
	b := New()
	a.Write(0x1000, 0, 8) // allocates an all-zero page
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("all-zero page should compare equal to absent page")
	}
	a.Write(0x1000, 1, 1)
	if a.Equal(b) {
		t.Error("differing memories compared equal")
	}
}

func TestPageSet(t *testing.T) {
	m := New()
	m.Write(0x1000, 1, 8)
	m.Write(0x5000, 1, 8)
	s := NewPageSet(m)
	if !s.Contains(0x1004) {
		t.Error("0x1004 should be legal")
	}
	if s.Contains(0x100000) {
		t.Error("0x100000 should be illegal")
	}
	if !s.ContainsRange(0x1000, 8) {
		t.Error("in-page range should be legal")
	}
	if s.ContainsRange(PageSize-4, 8) {
		t.Error("range leaking into an untouched page should be illegal")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestPagesSorted(t *testing.T) {
	m := New()
	for _, a := range []uint64{0x9000_0000, 0x1000, 0x5000_0000} {
		m.Write(a, 1, 1)
	}
	ps := m.Pages()
	for i := 1; i < len(ps); i++ {
		if ps[i-1] >= ps[i] {
			t.Fatalf("pages not sorted: %v", ps)
		}
	}
}
