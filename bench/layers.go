package main

import (
	"fmt"
	"math/rand"
	"time"

	"pipefault/internal/core"
	"pipefault/internal/mem"
	"pipefault/internal/uarch"
	"pipefault/internal/workload"
)

const (
	// maxCycles bounds the reset-to-halt measurement, as the engine's
	// measurement pass does.
	maxCycles = 30_000_000
	// rollbackSamples is the number of Mark/flip/step/RollbackTo rounds
	// timed at each checkpoint.
	rollbackSamples = 4
	// goldenCycles is a golden continuation's length: the default trial
	// horizon (10,000 cycles, as in the paper) plus the engine's 2,000
	// cycles of slack.
	goldenCycles = 12_000
)

// layerCounts are the probes' work counts, summed over kernels.
type layerCounts struct {
	dynInsns, cycles, retired uint64
	tracedCycles              uint64
	checkpoints, imagePages   int
}

// probeLayers times the layers' public entry points from outside the
// engine, for every kernel at the checkpoints the campaign uses. Each call
// is a span under a per-kernel bench.probe root; the per-layer metrics are
// read back from those spans. stepsPerTrial sizes the rollback probe's
// dirty set like an average trial's.
func (s *session) probeLayers(rec *recorder, stepsPerTrial int) (*layerCounts, error) {
	lc := &layerCounts{}
	rng := rand.New(rand.NewSource(s.seed))
	for _, k := range s.w.Kernels {
		root := rec.open("bench.probe", 0, time.Now(), map[string]any{"kernel": k.Name})
		if err := probeKernel(s.w.config(k, s.seed, 1), k.w, rec, root, rng, stepsPerTrial, lc); err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		rec.close(root, time.Now())
	}
	return lc, nil
}

func probeKernel(cfg core.Config, w *workload.Workload, rec *recorder, root int, rng *rand.Rand, stepsPerTrial int, lc *layerCounts) error {
	prog, err := w.Program()
	if err != nil {
		return err
	}
	var ref *workload.Reference
	rec.timed("arch.reference", root, func() { ref, err = w.ComputeReference() })
	if err != nil {
		return err
	}
	lc.dynInsns += ref.DynInsns
	newMachine := func() *uarch.Machine {
		mm := mem.New()
		regs := prog.Load(mm)
		return uarch.NewOnMemory(uarch.Config{}, mm, ref.Legal, prog.Entry, regs)
	}

	// The engine's measurement pass: reset to halt.
	m := newMachine()
	rec.timed("uarch.measure", root, func() { m.Run(maxCycles) })
	if !m.Halted() {
		return fmt.Errorf("did not halt within %d cycles", maxCycles)
	}
	lc.cycles += m.Cycle
	lc.retired += m.Retired

	// The survey runs the measurement pass, the walk, and every
	// checkpoint's golden run and proof; it also yields the checkpoint
	// schedule, which depends on the seed but not on the fault model.
	var cov []core.ProofCoverage
	rec.timed("core.survey", root, func() { cov, err = core.SurveyProofs(cfg) })
	if err != nil {
		return err
	}

	// The pilot's walk, imaging memory at each checkpoint, with a clone
	// there for the rollback and traced-step probes.
	m = newMachine()
	m.Mem.BeginImaging()
	var snaps []*uarch.Snapshot
	var imgs []*mem.Image
	for _, ck := range cov {
		rec.timed("uarch.walk", root, func() { m.Run(ck.Cycle - m.Cycle) })
		if m.Halted() {
			return fmt.Errorf("halted before checkpoint cycle %d", ck.Cycle)
		}
		var img *mem.Image
		rec.timed("mem.capture_image", root, func() { img = m.Mem.CaptureImage() })
		snaps = append(snaps, m.Snapshot())
		imgs = append(imgs, img)
		lc.imagePages += img.PageCount()

		c := m.Clone()
		probeRollback(c, rec, root, rng, stepsPerTrial)
		lc.tracedCycles += probeTracedStep(c, rec, root)
	}
	m.Mem.EndImaging()
	lc.checkpoints += len(imgs)

	// Hops between consecutive checkpoint images, as a steal worker makes
	// them; the first restore is a full copy and is not timed.
	r := newMachine()
	if len(snaps) > 0 {
		r.RestoreCheckpoint(snaps[0], imgs[0], nil)
	}
	for i := 1; i < len(snaps); i++ {
		rec.timed("uarch.restore_checkpoint", root, func() { r.RestoreCheckpoint(snaps[i], imgs[i], imgs[i-1]) })
	}
	return nil
}

// probeRollback times the trial rewind: mark, flip one random bit, step an
// average trial's cycles, then roll the state file and memory back.
func probeRollback(c *uarch.Machine, rec *recorder, root int, rng *rand.Rand, steps int) {
	var mp uarch.MarkPoint
	c.BeginJournal()
	c.Mem.BeginUndo()
	for i := 0; i < rollbackSamples; i++ {
		c.Mark(&mp)
		memMark := c.Mem.Mark()
		c.F.RandomBit(rng, false).Flip()
		c.Run(uint64(steps))
		rec.timed("uarch.rollback", root, func() {
			c.RollbackTo(&mp)
			c.Mem.RollbackTo(memMark)
		})
	}
	c.CommitJournal()
	c.Mem.Rollback()
}

// probeTracedStep steps c through a golden continuation's length with a
// touch trace attached, the way golden runs record liveness. It returns the
// cycles stepped.
func probeTracedStep(c *uarch.Machine, rec *recorder, root int) uint64 {
	tr := c.F.NewTouchTrace()
	c.F.StartTrace(tr)
	var cyc uint64
	rec.timed("uarch.traced_step", root, func() {
		for cyc = 1; cyc <= goldenCycles && !c.Halted(); cyc++ {
			c.F.TraceCycle(cyc)
			c.Step()
		}
	})
	c.F.StopTrace()
	return cyc - 1
}
