package asm_test

import (
	"testing"

	"pipefault/internal/asm"
	"pipefault/internal/mem"
	"pipefault/internal/workload"
)

// FuzzAssemble: whatever the source, Assemble returns an error or a
// program inside the load layout (.text below DataBase, .data below
// DataEnd) that Program.Load places without a panic. Seeded with the
// suite's kernels.
func FuzzAssemble(f *testing.F) {
	for _, w := range workload.Suite() {
		f.Add(w.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble(src)
		if err != nil {
			if _, ok := err.(*asm.Error); !ok {
				t.Fatalf("Assemble error %v is a %T, want *asm.Error", err, err)
			}
			return
		}
		if p.TextEnd() > asm.DataBase {
			t.Fatalf(".text ends at %#x, past DataBase %#x", p.TextEnd(), asm.DataBase)
		}
		if end := asm.DataBase + uint64(len(p.Data)); end > asm.DataEnd {
			t.Fatalf(".data ends at %#x, past DataEnd %#x", end, asm.DataEnd)
		}
		p.Load(mem.New())
	})
}
