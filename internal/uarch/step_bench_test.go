package uarch

import (
	"testing"

	"pipefault/internal/mem"
	"pipefault/internal/workload"
)

// gzipMachines returns a constructor of fresh Gzip machines at reset.
func gzipMachines(tb testing.TB) func() *Machine {
	tb.Helper()
	w := workload.Gzip
	prog, err := w.Program()
	if err != nil {
		tb.Fatal(err)
	}
	ref, err := w.ComputeReference()
	if err != nil {
		tb.Fatal(err)
	}
	return func() *Machine {
		mm := mem.New()
		regs := prog.Load(mm)
		return NewOnMemory(Config{}, mm, ref.Legal, prog.Entry, regs)
	}
}

// BenchmarkStep measures raw detailed-model stepping on the Gzip
// workload, the same loop cmd/pipebench reports as pipeline_cycles. The
// state file is plain: nothing reads its digest, so Set stores raw.
func BenchmarkStep(b *testing.B) {
	newMachine := gzipMachines(b)
	m := newMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Halted() {
			b.StopTimer()
			m = newMachine()
			b.StartTimer()
		}
		m.Step()
	}
}

// digestSink keeps BenchmarkStepHashed's digest reads live.
var digestSink uint64

// BenchmarkStepHashed is BenchmarkStep with the digest maintained, as a
// trial steps: a journal is active and the digest is read every cycle.
func BenchmarkStepHashed(b *testing.B) {
	newMachine := gzipMachines(b)
	m := newMachine()
	m.BeginJournal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Halted() {
			b.StopTimer()
			m = newMachine()
			m.BeginJournal()
			b.StartTimer()
		}
		m.Step()
		digestSink ^= m.Digest()
	}
}
