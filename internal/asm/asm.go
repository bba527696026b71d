// Package asm implements a two-pass macro assembler for the Alpha integer
// subset defined in package isa. It is the toolchain used to build the
// workload suite: the paper compiled SPEC2000 binaries with a real Alpha
// toolchain; here the workloads are written in assembly and built with this
// assembler.
//
// Supported syntax:
//
//	label:                         # labels (text or data)
//	name = expr                    # assemble-time constants
//	.text / .data                  # section switch
//	.align n                       # align to 1<<n bytes
//	.byte/.word/.long/.quad e,...  # data emission (expressions allowed)
//	.ascii "s" / .asciz "s"        # strings
//	.space n [, fill]              # reserve n bytes
//	addq $1, $2, $3                # operate, register form
//	addq $1, 200, $3               # operate, literal form (0..255)
//	ldq $4, 16($sp)                # memory format
//	beq $5, loop                   # branches to labels
//	bsr func / ret / jmp ($6)      # calls, returns, indirect jumps
//	ldiq $7, expr                  # pseudo: load 64-bit immediate
//	mov $1, $2 / clr $3 / nop      # pseudo-ops
//	call_pal 0x1 / halt            # PAL calls
//
// Registers are written $0..$31 or by OSF/1 software name ($v0, $t0-$t11,
// $s0-$s5, $a0-$a5, $ra, $pv, $gp, $sp, $fp, $at, $zero). Comments start
// with '#' or ';' and run to end of line.
package asm

import (
	"fmt"
	"strings"

	"pipefault/internal/isa"
	"pipefault/internal/mem"
)

// Default memory layout for assembled programs.
const (
	// TextBase is the load address of the .text section.
	TextBase = 0x0000_2000
	// DataBase is the load address of the .data section.
	DataBase = 0x0004_0000
	// StackTop is the initial stack pointer (stack grows down).
	StackTop = 0x0010_0000
	// StackPages is the number of pages preallocated below StackTop.
	StackPages = 8
	// DataEnd bounds the .data section: the lowest preallocated stack
	// page. .text must end at or below DataBase and .data at or below
	// DataEnd, or Program.Load would store one over the other.
	DataEnd = StackTop - StackPages*mem.PageSize
)

// Program is the output of the assembler: a loadable memory image.
type Program struct {
	Entry   uint64            // address of the first instruction
	Text    []byte            // .text image, loaded at TextBase
	Data    []byte            // .data image, loaded at DataBase
	Symbols map[string]uint64 // label values
}

// TextEnd returns the first address past the text section.
func (p *Program) TextEnd() uint64 { return TextBase + uint64(len(p.Text)) }

// Load places the program image and stack pages into memory and returns the
// initial register file (SP set, everything else zero).
func (p *Program) Load(m *mem.Memory) (regs [isa.NumArchRegs]uint64) {
	for i, b := range p.Text {
		m.StoreByte(TextBase+uint64(i), b)
	}
	for i, b := range p.Data {
		m.StoreByte(DataBase+uint64(i), b)
	}
	// Touch the stack pages so they are part of the legal page set.
	for pg := 0; pg < StackPages; pg++ {
		m.StoreByte(StackTop-1-uint64(pg)*mem.PageSize, 0)
	}
	regs[isa.RegSP] = StackTop - 64
	return regs
}

// Error is an assembly error annotated with a source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Assemble assembles source into a Program.
func Assemble(source string) (*Program, error) {
	a := &assembler{
		syms:     make(map[string]uint64),
		known:    make(map[string]bool),
		consts:   make(map[string]int64),
		constSym: make(map[string]bool),
	}
	return a.run(source)
}

type section int

const (
	secText section = iota + 1
	secData
)

type assembler struct {
	syms     map[string]uint64 // label -> address
	known    map[string]bool
	consts   map[string]int64 // name = expr constants
	constSym map[string]bool  // constant was derived from a label

	pass    int
	sec     section
	textPos uint64 // offset within .text
	dataPos uint64 // offset within .data
	text    []byte
	data    []byte
	line    int
	err     error
}

func (a *assembler) errorf(format string, args ...any) {
	if a.err == nil {
		a.err = &Error{Line: a.line, Msg: fmt.Sprintf(format, args...)}
	}
}

func (a *assembler) run(source string) (*Program, error) {
	lines := strings.Split(source, "\n")
	for pass := 1; pass <= 2; pass++ {
		a.pass = pass
		a.sec = secText
		if pass == 2 {
			a.text = make([]byte, 0, a.textPos)
			a.data = make([]byte, 0, a.dataPos)
		}
		a.textPos, a.dataPos = 0, 0
		for i, raw := range lines {
			a.line = i + 1
			a.doLine(raw)
			if a.err != nil {
				return nil, a.err
			}
		}
	}
	entry := TextBase
	if v, ok := a.syms["_start"]; ok {
		entry = int(v)
	}
	return &Program{
		Entry:   uint64(entry),
		Text:    a.text,
		Data:    a.data,
		Symbols: a.syms,
	}, nil
}

// pos returns the current position counter of the active section.
func (a *assembler) pos() uint64 {
	if a.sec == secText {
		return TextBase + a.textPos
	}
	return DataBase + a.dataPos
}

func (a *assembler) advance(n uint64) {
	if a.sec == secText {
		a.textPos += n
	} else {
		a.dataPos += n
	}
}

// room returns the bytes left in the active section before it reaches its
// bound in the load layout, and the section's name and bound.
func (a *assembler) room() (n uint64, name string, end uint64) {
	if a.sec == secText {
		return DataBase - a.pos(), ".text", DataBase
	}
	return DataEnd - a.pos(), ".data", DataEnd
}

// emitBytes appends raw bytes to the active section (pass 2) or advances the
// position counter (pass 1). Bytes that do not fit before the section's
// bound are an error, and are not emitted.
func (a *assembler) emitBytes(bs ...byte) {
	if n, name, end := a.room(); uint64(len(bs)) > n {
		a.errorf("%s runs past %#x", name, end)
		return
	}
	if a.pass == 2 {
		if a.sec == secText {
			a.text = append(a.text, bs...)
		} else {
			a.data = append(a.data, bs...)
		}
	}
	a.advance(uint64(len(bs)))
}

func (a *assembler) emitWord(w uint32) {
	a.emitBytes(byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
}

func (a *assembler) emitInst(w uint32, err error) {
	if err != nil {
		a.errorf("%v", err)
		return
	}
	if a.sec != secText {
		a.errorf("instruction outside .text")
		return
	}
	a.emitWord(w)
}

// doLine assembles a single source line.
func (a *assembler) doLine(raw string) {
	s := stripComment(raw)
	s = strings.TrimSpace(s)
	if s == "" {
		return
	}

	// Labels (possibly several on one line).
	for {
		idx := labelEnd(s)
		if idx < 0 {
			break
		}
		name := strings.TrimSpace(s[:idx])
		if !validIdent(name) {
			a.errorf("invalid label %q", name)
			return
		}
		if a.pass == 1 {
			if a.known[name] {
				a.errorf("duplicate label %q", name)
				return
			}
			a.known[name] = true
		}
		a.syms[name] = a.pos()
		s = strings.TrimSpace(s[idx+1:])
		if s == "" {
			return
		}
	}

	// Assemble-time constant: name = expr.
	if i := strings.Index(s, "="); i > 0 && validIdent(strings.TrimSpace(s[:i])) {
		name := strings.TrimSpace(s[:i])
		v, sym, err := a.eval(strings.TrimSpace(s[i+1:]))
		if err != nil {
			a.errorf("%v", err)
			return
		}
		if sym && a.pass == 1 {
			// Value may be unknown in pass 1; recorded on pass 2.
			a.constSym[name] = true
			return
		}
		a.consts[name] = v
		a.constSym[name] = sym
		return
	}

	if strings.HasPrefix(s, ".") {
		a.doDirective(s)
		return
	}
	a.doInst(s)
}

// labelEnd returns the index of a label-terminating ':' at the start of the
// line, or -1.
func labelEnd(s string) int {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ':':
			return i
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == '.', c == '$':
		default:
			return -1
		}
	}
	return -1
}

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '#', ';':
			if !inStr {
				return s[:i]
			}
		}
	}
	return s
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == '.' || r == '$' ||
			r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
