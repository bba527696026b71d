package asm

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"pipefault/internal/isa"
	"pipefault/internal/mem"
)

// assemble is a test helper that fails the test on assembly errors.
func assemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func word(t *testing.T, p *Program, i int) uint32 {
	t.Helper()
	if len(p.Text) < (i+1)*4 {
		t.Fatalf("text too short: %d bytes, want word %d", len(p.Text), i)
	}
	return uint32(p.Text[i*4]) | uint32(p.Text[i*4+1])<<8 |
		uint32(p.Text[i*4+2])<<16 | uint32(p.Text[i*4+3])<<24
}

func TestAssembleBasicOps(t *testing.T) {
	p := assemble(t, `
_start:
	addq $1, $2, $3
	subq $4, 100, $5
	ldq  $6, 16($sp)
	stq  $6, -8($30)
	nop
	halt
`)
	if got := isa.Decode(word(t, p, 0)); got.Op != isa.OpAddq || got.Ra != 1 || got.Rb != 2 || got.Rc != 3 {
		t.Errorf("word0 = %+v", got)
	}
	if got := isa.Decode(word(t, p, 1)); got.Op != isa.OpSubq || !got.LitValid || got.Lit != 100 {
		t.Errorf("word1 = %+v", got)
	}
	if got := isa.Decode(word(t, p, 2)); got.Op != isa.OpLdq || got.Rb != isa.RegSP || got.Disp != 16 {
		t.Errorf("word2 = %+v", got)
	}
	if got := isa.Decode(word(t, p, 3)); got.Op != isa.OpStq || got.Disp != -8 {
		t.Errorf("word3 = %+v", got)
	}
	if got := isa.Decode(word(t, p, 4)); got.Op != isa.OpNop {
		t.Errorf("word4 = %+v", got)
	}
	if got := isa.Decode(word(t, p, 5)); got.Op != isa.OpCallPal || got.PalFn != isa.PalHalt {
		t.Errorf("word5 = %+v", got)
	}
}

func TestAssembleBranchTargets(t *testing.T) {
	p := assemble(t, `
_start:
	clr $1
loop:
	addq $1, 1, $1
	cmplt $1, 10, $2
	bne $2, loop
	br done
	nop
done:
	halt
`)
	// bne is word 3; loop is word 1. disp = (1 - (3+1)) = -3.
	if got := isa.Decode(word(t, p, 3)); got.Op != isa.OpBne || got.Disp != -3 {
		t.Errorf("bne = %+v, want disp=-3", got)
	}
	// br is word 4; done is word 6. disp = 6 - 5 = 1.
	if got := isa.Decode(word(t, p, 4)); got.Op != isa.OpBr || got.Disp != 1 {
		t.Errorf("br = %+v, want disp=1", got)
	}
}

func TestAssembleForwardDataReference(t *testing.T) {
	p := assemble(t, `
	ldiq $1, table
	ldq $2, 8($1)
	halt
	.data
	.align 3
table:
	.quad 1, 2, 3
`)
	addr, ok := p.Symbols["table"]
	if !ok {
		t.Fatal("table symbol missing")
	}
	if addr < DataBase || addr%8 != 0 {
		t.Errorf("table at %#x, want aligned in data section", addr)
	}
	// Execute the ldiq pair and verify it produces the address.
	w0 := isa.Decode(word(t, p, 0))
	w1 := isa.Decode(word(t, p, 1))
	if w0.Op != isa.OpLda || w1.Op != isa.OpLdah {
		t.Fatalf("ldiq expansion = %v, %v", w0.Op, w1.Op)
	}
	v := uint64(int64(w0.Disp))
	v += uint64(int64(w1.Disp) << 16)
	if v != addr {
		t.Errorf("ldiq materializes %#x, want %#x", v, addr)
	}
}

func TestLdiqExpansionSizes(t *testing.T) {
	tests := []struct {
		src   string
		words int
	}{
		{"ldiq $1, 5", 1},
		{"ldiq $1, -5", 1},
		{"ldiq $1, 0x12345", 2},
		{"ldiq $1, -100000", 2},
		{"ldiq $1, 0x123456789", 5},
		{"ldiq $1, -1", 1},
	}
	for _, tt := range tests {
		p := assemble(t, tt.src+"\n")
		if got := len(p.Text) / 4; got != tt.words {
			t.Errorf("%q expanded to %d words, want %d", tt.src, got, tt.words)
		}
	}
}

// TestLdiqValueProperty: for any 64-bit constant, executing the ldiq
// expansion on the functional semantics must produce exactly that constant.
func TestLdiqValueProperty(t *testing.T) {
	f := func(v int64) bool {
		p, err := Assemble("ldiq $1, " + itoa(v) + "\n")
		if err != nil {
			t.Logf("assemble %d: %v", v, err)
			return false
		}
		var r1 uint64
		for i := 0; i < len(p.Text)/4; i++ {
			in := isa.Decode(word(t, p, i))
			switch in.Op {
			case isa.OpLda:
				base := uint64(0)
				if in.Rb == 1 {
					base = r1
				}
				r1 = base + uint64(int64(in.Disp))
			case isa.OpLdah:
				base := uint64(0)
				if in.Rb == 1 {
					base = r1
				}
				r1 = base + uint64(int64(in.Disp)<<16)
			case isa.OpSll:
				r1 = isa.EvalOperate(isa.OpSll, r1, uint64(in.Lit), 0)
			default:
				t.Logf("unexpected op %v in expansion of %d", in.Op, v)
				return false
			}
		}
		return r1 == uint64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func itoa(v int64) string {
	// strconv.FormatInt of MinInt64 works fine; wrapper for readability.
	return fmtInt(v)
}

func fmtInt(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	var buf [21]byte
	i := len(buf)
	u := uint64(v)
	if neg {
		u = uint64(-v) // wraps correctly for MinInt64
	}
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func TestDataDirectives(t *testing.T) {
	p := assemble(t, `
	halt
	.data
bytes:
	.byte 1, 2, 'a', 0xFF
	.align 2
longs:
	.long 0x11223344
str:
	.asciz "hi\n"
	.align 3
quads:
	.quad -1, buf
buf:
	.space 16, 0xAB
`)
	d := p.Data
	if d[0] != 1 || d[1] != 2 || d[2] != 'a' || d[3] != 0xFF {
		t.Errorf("bytes = % x", d[:4])
	}
	longOff := p.Symbols["longs"] - DataBase
	if got := uint32(d[longOff]) | uint32(d[longOff+1])<<8 | uint32(d[longOff+2])<<16 | uint32(d[longOff+3])<<24; got != 0x11223344 {
		t.Errorf("long = %#x", got)
	}
	strOff := p.Symbols["str"] - DataBase
	if string(d[strOff:strOff+4]) != "hi\n\x00" {
		t.Errorf("str = %q", d[strOff:strOff+4])
	}
	quadOff := p.Symbols["quads"] - DataBase
	if quadOff%8 != 0 {
		t.Errorf("quads misaligned at %#x", quadOff)
	}
	bufAddr := p.Symbols["buf"]
	var second uint64
	for i := 0; i < 8; i++ {
		second |= uint64(d[quadOff+8+uint64(i)]) << (8 * i)
	}
	if second != bufAddr {
		t.Errorf("quad symbol = %#x, want %#x", second, bufAddr)
	}
	spaceOff := bufAddr - DataBase
	for i := uint64(0); i < 16; i++ {
		if d[spaceOff+i] != 0xAB {
			t.Fatalf("space fill byte %d = %#x", i, d[spaceOff+i])
		}
	}
}

func TestConstantsAndExpressions(t *testing.T) {
	p := assemble(t, `
N = 10
M = N * 4 + (1 << 8)
	ldiq $1, M
	halt
`)
	w0 := isa.Decode(word(t, p, 0))
	if w0.Op != isa.OpLda || w0.Disp != 296 {
		t.Errorf("M materialized as %+v, want lda disp 296", w0)
	}
	_ = p
}

func TestPseudoOps(t *testing.T) {
	p := assemble(t, `
	mov $3, $4
	clr $5
	negq $6, $7
	not $8, $9
	sextl $10, $11
	ret
	jmp ($12)
	jsr ($13)
	bsr func
func:
	ret
`)
	checks := []struct {
		i  int
		op isa.Op
		ra uint8
		rb uint8
		rc uint8
	}{
		{0, isa.OpBis, 3, 3, 4},
		{1, isa.OpBis, 31, 31, 5},
		{2, isa.OpSubq, 31, 6, 7},
		{3, isa.OpOrnot, 31, 8, 9},
		{4, isa.OpAddl, 31, 10, 11},
	}
	for _, ck := range checks {
		got := isa.Decode(word(t, p, ck.i))
		if got.Op != ck.op || got.Ra != ck.ra || got.Rb != ck.rb || got.Rc != ck.rc {
			t.Errorf("word%d = %+v, want %v %d,%d,%d", ck.i, got, ck.op, ck.ra, ck.rb, ck.rc)
		}
	}
	if got := isa.Decode(word(t, p, 5)); got.Op != isa.OpRet || got.Rb != isa.RegRA {
		t.Errorf("ret = %+v", got)
	}
	if got := isa.Decode(word(t, p, 6)); got.Op != isa.OpJmp || got.Rb != 12 {
		t.Errorf("jmp = %+v", got)
	}
	if got := isa.Decode(word(t, p, 7)); got.Op != isa.OpJsr || got.Ra != isa.RegRA || got.Rb != 13 {
		t.Errorf("jsr = %+v", got)
	}
	if got := isa.Decode(word(t, p, 8)); got.Op != isa.OpBsr || got.Ra != isa.RegRA {
		t.Errorf("bsr = %+v", got)
	}
}

func TestAssembleErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"unknown mnemonic", "frob $1, $2, $3\n"},
		{"bad register", "addq $32, $1, $2\n"},
		{"literal out of range", "addq $1, 256, $2\n"},
		{"undefined symbol", "beq $1, nowhere\n"},
		{"duplicate label", "x:\nx:\n"},
		{"insn in data", ".data\naddq $1, $2, $3\n"},
		{"displacement overflow", "ldq $1, 40000($2)\n"},
		{"bad directive", ".frob 1\n"},
		{"division by zero", "N = 1/0\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Assemble(tt.src); err == nil {
				t.Errorf("no error for %q", tt.src)
			}
		})
	}
}

// TestSectionBounds: a section that runs past its bound in the load
// layout (.text into .data, .data into the stack pages) is a positioned
// error, whether code, data or .space fills it; filling a section exactly
// is fine. The huge .space sizes are refused before any byte is emitted.
func TestSectionBounds(t *testing.T) {
	textRoom := fmt.Sprint(DataBase - TextBase)
	dataRoom := fmt.Sprint(DataEnd - DataBase)
	for _, tt := range []struct {
		name string
		src  string
		line int // 0: assembles
	}{
		{"text full", ".space " + textRoom + "\n", 0},
		{"text full, then code", ".space " + textRoom + "\nnop\n", 2},
		{"text past data", "nop\n.space 0x40000\n", 2},
		{"huge text space", ".space 1<<40\n", 1},
		{"data full", ".data\n.space " + dataRoom + "\n.align 16\n", 0},
		{"data full, then a byte", ".data\n.space " + dataRoom + "\n.byte 1\n", 3},
		{"huge data space", ".data\n.quad 1\n.space 1<<40, 7\n", 3},
		{"data past stack", ".data\n.space " + dataRoom + " - 4\n.quad 1\n", 3},
	} {
		t.Run(tt.name, func(t *testing.T) {
			p, err := Assemble(tt.src)
			if tt.line == 0 {
				if err != nil {
					t.Fatal(err)
				}
				if p.TextEnd() > DataBase || DataBase+uint64(len(p.Data)) > DataEnd {
					t.Errorf("program spans text %#x-%#x, data %#x-%#x", TextBase, p.TextEnd(), DataBase, DataBase+uint64(len(p.Data)))
				}
				return
			}
			var ae *Error
			if !errors.As(err, &ae) || ae.Line != tt.line {
				t.Errorf("Assemble = %v, want an *Error at line %d", err, tt.line)
			}
		})
	}
}

func TestCommentsAndRegisterAliases(t *testing.T) {
	p := assemble(t, `
	# full line comment
	addq $v0, $a0, $t0   # trailing comment
	addq $ra, $gp, $sp   ; other comment style
`)
	w0 := isa.Decode(word(t, p, 0))
	if w0.Ra != 0 || w0.Rb != 16 || w0.Rc != 1 {
		t.Errorf("aliases resolved to %+v", w0)
	}
	w1 := isa.Decode(word(t, p, 1))
	if w1.Ra != 26 || w1.Rb != 29 || w1.Rc != 30 {
		t.Errorf("aliases resolved to %+v", w1)
	}
}

func TestLoad(t *testing.T) {
	p := assemble(t, `
_start:
	nop
	halt
	.data
v:
	.quad 42
`)
	m := mem.New()
	regs := p.Load(m)
	if regs[isa.RegSP] == 0 || regs[isa.RegSP] > StackTop {
		t.Errorf("SP = %#x", regs[isa.RegSP])
	}
	if got := m.Read(p.Symbols["v"], 8); got != 42 {
		t.Errorf("data at v = %d, want 42", got)
	}
	if got := m.Read(p.Entry, 4); got == 0 {
		t.Error("no instruction at entry")
	}
	// Stack pages must be present for the legal page set.
	if !m.HasPage(StackTop - 1) {
		t.Error("stack page not touched")
	}
}
