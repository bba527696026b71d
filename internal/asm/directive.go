package asm

import (
	"strconv"
	"strings"
)

// doDirective handles a line beginning with '.'.
func (a *assembler) doDirective(s string) {
	name, rest := splitMnemonic(s)
	switch name {
	case ".text":
		a.sec = secText
	case ".data":
		a.sec = secData

	case ".align":
		v, _, err := a.eval(rest)
		if err != nil || v < 0 || v > 16 {
			a.errorf("bad .align operand %q", rest)
			return
		}
		align := uint64(1) << uint(v)
		for a.pos()%align != 0 && a.err == nil {
			a.emitBytes(0)
		}

	case ".byte", ".word", ".long", ".quad":
		size := map[string]int{".byte": 1, ".word": 2, ".long": 4, ".quad": 8}[name]
		for _, field := range splitOperands(rest) {
			v, _, err := a.eval(field)
			if err != nil {
				a.errorf("%v", err)
				return
			}
			bs := make([]byte, size)
			for i := 0; i < size; i++ {
				bs[i] = byte(uint64(v) >> (8 * i))
			}
			a.emitBytes(bs...)
		}

	case ".ascii", ".asciz":
		str, err := strconv.Unquote(strings.TrimSpace(rest))
		if err != nil {
			a.errorf("bad string literal %q", rest)
			return
		}
		a.emitBytes([]byte(str)...)
		if name == ".asciz" {
			a.emitBytes(0)
		}

	case ".space":
		fields := splitOperands(rest)
		if len(fields) == 0 || len(fields) > 2 {
			a.errorf(".space wants 1 or 2 operands")
			return
		}
		n, _, err := a.eval(fields[0])
		if err != nil || n < 0 {
			a.errorf("bad .space size %q", fields[0])
			return
		}
		if room, name, end := a.room(); uint64(n) > room {
			a.errorf(".space %d exceeds the %d bytes left in %s before %#x", n, room, name, end)
			return
		}
		fill := int64(0)
		if len(fields) == 2 {
			fill, _, err = a.eval(fields[1])
			if err != nil {
				a.errorf("bad .space fill %q", fields[1])
				return
			}
		}
		// Emit in chunks to avoid one huge variadic call.
		chunk := make([]byte, 4096)
		for i := range chunk {
			chunk[i] = byte(fill)
		}
		for n > 0 {
			c := int64(len(chunk))
			if n < c {
				c = n
			}
			a.emitBytes(chunk[:c]...)
			n -= c
		}

	default:
		a.errorf("unknown directive %q", name)
	}
}

// splitMnemonic splits a line into its first token and the remainder.
func splitMnemonic(s string) (string, string) {
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return strings.ToLower(s), ""
	}
	return strings.ToLower(s[:i]), strings.TrimSpace(s[i+1:])
}

// splitOperands splits a comma-separated operand list, respecting
// parentheses and string/char literals.
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	inStr, inChar := false, false
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case inChar:
			if c == '\\' {
				i++
			} else if c == '\'' {
				inChar = false
			}
		case c == '"':
			inStr = true
		case c == '\'':
			inChar = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}
