package isa

import (
	"slices"
	"testing"
)

// FuzzDecode: every 32-bit word decodes and disassembles without a panic,
// and a word an encoder produces from the fuzzed operands decodes back to
// that operation and those operands (a write to r31 folds to the
// architected no-op).
func FuzzDecode(f *testing.F) {
	ops := make([]Op, 0, len(encTable))
	for op := range encTable {
		ops = append(ops, op)
	}
	slices.Sort(ops)
	f.Add(uint32(0), uint8(0), uint8(1), uint8(2), uint8(3), int32(-4))
	f.Add(EncodeNop(), uint8(40), uint8(31), uint8(30), uint8(31), int32(1<<20-1))
	f.Add(uint32(0x07<<26), uint8(77), uint8(26), uint8(29), uint8(0), int32(-(1 << 20)))
	f.Fuzz(func(t *testing.T, raw uint32, sel, ra, rb, rc uint8, disp int32) {
		in := Decode(raw)
		if in.Raw != raw {
			t.Fatalf("Decode(%#x).Raw = %#x", raw, in.Raw)
		}
		_ = Disassemble(in, 0x2000)
		in.DestReg()
		in.SrcRegs()

		op := ops[int(sel)%len(ops)]
		ra, rb, rc = ra&31, rb&31, rc&31
		var w uint32
		var err error
		// want holds the fields the operation's format defines.
		want := Inst{Op: op, Ra: ra}
		format := encTable[op].format
		switch format {
		case fmtMemory:
			w, err = EncodeMemory(op, ra, rb, int16(disp))
			want.Rb, want.Disp = rb, int32(int16(disp))
			if ra == RegZero && (op == OpLda || op == OpLdah || op.IsLoad()) {
				want.Op = OpNop
			}
		case fmtBranch:
			w, err = EncodeBranch(op, ra, disp)
			if err != nil {
				if disp >= -(1<<20) && disp < 1<<20 {
					t.Fatalf("EncodeBranch(%v, %d, %d): %v", op, ra, disp, err)
				}
				return
			}
			want.Disp = disp
		case fmtOperate:
			if disp&1 == 0 {
				w, err = EncodeOperate(op, ra, rb, rc)
				want.Rb = rb
			} else {
				w, err = EncodeOperateLit(op, ra, uint8(disp>>1), rc)
				want.LitValid, want.Lit = true, uint8(disp>>1)
			}
			want.Rc = rc
			if rc == RegZero {
				want.Op = OpNop
			}
		case fmtJump:
			w, err = EncodeJump(op, ra, rb)
			want.Rb = rb
		case fmtPal:
			w, err = EncodePal(uint32(disp) & (1<<26 - 1))
			want = Inst{Op: op, PalFn: uint32(disp) & (1<<26 - 1)}
		}
		if err != nil {
			t.Fatalf("encoding %v: %v", op, err)
		}
		got := Decode(w)
		fields := Inst{Op: got.Op, Ra: got.Ra}
		switch format {
		case fmtMemory:
			fields.Rb, fields.Disp = got.Rb, got.Disp
		case fmtBranch:
			fields.Disp = got.Disp
		case fmtOperate:
			fields.Rb, fields.Rc, fields.LitValid, fields.Lit = got.Rb, got.Rc, got.LitValid, got.Lit
		case fmtJump:
			fields.Rb = got.Rb
		case fmtPal:
			fields = Inst{Op: got.Op, PalFn: got.PalFn}
		}
		if fields != want {
			t.Fatalf("%v encoded as %#x decodes to %+v, want %+v", op, w, fields, want)
		}
		_ = Disassemble(got, 0x2000)
	})
}
