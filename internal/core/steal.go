package core

import (
	"context"
	"math/rand"
	"sort"
	"sync"

	"pipefault/internal/mem"
	"pipefault/internal/uarch"
)

// The campaign engine. One checkpoint is one unit of work.
//
// Pilot: a single machine advances through the workload once, capturing
// at each checkpoint a portable image (bit-store snapshot + copy-on-write
// memory image) and sending it on a channel of capacity Workers+1. At
// most 2*Workers+2 images are resident — one per busy worker, a full
// channel, and the one the pilot waits to send — so campaign memory stays
// flat no matter how many checkpoints the campaign has.
//
// Workers: each worker ranges over the channel, restores the image onto
// its private machine, and runs the checkpoint whole — golden
// continuation, proof, cross-check oracle, then every trial in flat order
// from the one checkpointSeed(Seed, ck) stream — and reports one message.
//
// Determinism: a checkpoint's trials depend only on (Seed, checkpoint
// index), and aggregation folds in checkpoint order, so the Result is
// bit-identical for any Workers.
//
// Robustness: per-trial panics and watchdog expiries are contained inside
// runTrialContained (see engine.go). A cross-check failure, an engine
// panic or the caller's cancellation cancels the campaign context: the
// pilot stops capturing and workers skip queued images, while checkpoints
// already running finish and report. A campaign journal, when configured,
// lets Resume skip journal-complete checkpoints: the pilot steps through
// them without capturing an image.

// ckImage is one checkpoint's portable image, immutable after capture.
type ckImage struct {
	ck   int
	snap *uarch.Snapshot
	mem  *mem.Image
}

// ckMsg carries one checkpoint's results to the aggregator: its
// golden-run validInsns, proven strata (nil under ProveOff) and flat trial
// sequence, or the cross-check oracle's failure.
type ckMsg struct {
	ck         int
	validInsns int
	proven     []ProvenStratum
	trials     []Trial
	err        error
}

// runPilot is the reachability pass: one machine steps through the
// workload once, capturing a portable image at every checkpoint cycle. A
// machine that architecturally halts early stops sending; the unreached
// checkpoints produce no results. Journal-complete checkpoints (skip) are
// stepped through but not captured; a cancelled context stops the pilot
// at the next checkpoint or while it waits to send.
func runPilot(ctx context.Context, m *uarch.Machine, cycles []uint64, skip []bool, out chan<- *ckImage) {
	m.Mem.BeginImaging()
	defer m.Mem.EndImaging()
	for ck, cyc := range cycles {
		if ctx.Err() != nil {
			return
		}
		for m.Cycle < cyc && !m.Halted() {
			m.Step()
		}
		if m.Halted() {
			return
		}
		if skip[ck] {
			continue
		}
		select {
		case out <- &ckImage{ck: ck, snap: m.Snapshot(), mem: m.Mem.CaptureImage()}:
		case <-ctx.Done():
			return
		}
	}
}

// golden runs the checkpoint's fault-free continuation on the worker's
// machine and rewinds.
func (w *worker) golden() (*goldenRun, int) {
	m := w.m
	m.BeginJournal()
	m.Mark(&w.ckMark)
	m.Mem.BeginUndo()

	g := w.goldenContinuation()
	m.RollbackTo(&w.ckMark)
	m.CommitJournal()
	m.Mem.Rollback()

	// An in-flight instruction is valid if the golden run retires it.
	// Retirement is in order and a refetched instruction gets a fresh,
	// larger seqno, so g.events ascends by Seq.
	validInsns := 0
	for _, s := range m.InFlightSeqs() {
		i := sort.Search(len(g.events), func(i int) bool { return g.events[i].Seq >= s })
		if i < len(g.events) && g.events[i].Seq == s {
			validInsns++
		}
	}
	return g, validInsns
}

// runCheckpoint runs one checkpoint whole on the worker's machine, which
// must sit at the checkpoint's state: golden run, proof, cross-check,
// then every trial. popOf maps flat trial index to population index; the
// trials draw their bits from the checkpoint's one RNG stream in flat
// order. Each trial runs inside the containment boundary (see
// runTrialContained), and the machine ends back at checkpoint state.
func (w *worker) runCheckpoint(ck int, popOf []int) ckMsg {
	g, validInsns := w.golden()
	proof := w.computeProof(g)
	msg := ckMsg{ck: ck, validInsns: validInsns, proven: provenStrata(proof, ck, w.cfg.Populations)}
	if msg.err = w.crossCheck(ck, proof); msg.err != nil {
		return msg
	}

	m := w.m
	rng := rand.New(rand.NewSource(checkpointSeed(w.cfg.Seed, ck)))
	m.BeginJournal()
	m.Mem.BeginUndo()
	msg.trials = make([]Trial, len(popOf))
	for i, pi := range popOf {
		bit := drawBit(m.F, proof, rng, w.cfg.Populations[pi].LatchOnly)
		msg.trials[i] = w.runTrialContained(bit, ck, i)
	}
	m.CommitJournal()
	m.Mem.Rollback()
	return msg
}

// runWorker is one worker's life: restore each image it receives and run
// its checkpoint, until the pilot closes the channel. After cancellation
// it drains queued images without running them. Between checkpoints the
// machine sits exactly at the last image's state (every golden run and
// trial is rolled back), so that image is a valid RestoreCheckpoint prev.
func runWorker(ctx context.Context, w *worker, popOf []int, in <-chan *ckImage, out chan<- ckMsg) {
	var cur *mem.Image
	for img := range in {
		if ctx.Err() != nil {
			continue
		}
		w.m.RestoreCheckpoint(img.snap, img.mem, cur)
		cur = img.mem
		out <- w.runCheckpoint(img.ck, popOf)
	}
}

// runPool runs the pilot and the worker pool and aggregates their
// results into res.
func runPool(parent context.Context, cfg Config, newMachine func() *uarch.Machine, cycles []uint64, horizonG uint64, res *Result, prior *priorUnits, jw *campaignJournal) (*Result, error) {
	// Flat trial layout: index i of a checkpoint's trial sequence belongs
	// to population popOf[i]. Shared, read-only.
	var popOf []int
	for pi, p := range cfg.Populations {
		for t := 0; t < p.Trials; t++ {
			popOf = append(popOf, pi)
		}
	}
	totalPerCk := len(popOf)

	skip := make([]bool, len(cycles))
	for ck := range skip {
		skip[ck] = prior.completeCk(ck)
	}

	nw := cfg.Workers
	if nw > len(cycles) {
		nw = len(cycles)
	}
	if nw < 1 {
		nw = 1
	}

	// ctx is cancelled by the caller, a cross-check failure or an engine
	// panic; every path stops the pilot and lets queued images drain.
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	guard := &engineGuard{}
	// Workers+1 queued images keep every worker fed while the pilot steps
	// to the next checkpoint, and bound residency at 2*Workers+2 images.
	imgCh := make(chan *ckImage, nw+1)
	// One slot per worker: a finished checkpoint never waits on a slow
	// aggregation step (journal write, OnProgress callback).
	msgCh := make(chan ckMsg, nw)

	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard.capture("campaign worker", cancel)
			runWorker(ctx, newWorker(cfg, newMachine(), horizonG), popOf, imgCh, msgCh)
		}()
	}
	go func() {
		defer close(imgCh)
		defer guard.capture("checkpoint pilot", cancel)
		runPilot(ctx, newMachine(), cycles, skip, imgCh)
	}()
	go func() {
		wg.Wait()
		close(msgCh)
	}()

	// Aggregation: collect checkpoint results as they arrive, then fold in
	// checkpoint order so the assembled Result is independent of arrival
	// order. Journal-complete checkpoints are taken from the journal and
	// not re-journaled.
	done := make([]*ckMsg, len(cycles))
	prog := newProgressTracker(cfg, len(cycles))
	for ck := range done {
		if skip[ck] {
			done[ck] = &ckMsg{ck: ck, validInsns: prior.valid[ck], proven: prior.proven[ck], trials: prior.trials[ck]}
			prog.add(totalPerCk, true)
		}
	}
	var oracleErr error
	for msg := range msgCh {
		if msg.err != nil {
			// Soundness violation caught by the cross-check: stop
			// dispatching, drain running checkpoints, and surface the first
			// failure. The failing checkpoint is not journaled, so a resume
			// re-runs — and re-checks — it.
			if oracleErr == nil {
				oracleErr = msg.err
			}
			cancel()
			continue
		}
		done[msg.ck] = &msg
		jw.checkpoint(msg.ck, msg.validInsns, msg.proven, msg.trials)
		prog.add(len(msg.trials), true)
	}
	if err := guard.get(); err != nil {
		return nil, err
	}
	if oracleErr != nil {
		return nil, oracleErr
	}

	popStart := popStarts(&cfg)
	for _, d := range done {
		if d == nil {
			continue // checkpoint unreached (halt) or dropped (cancellation)
		}
		for pi, pop := range cfg.Populations {
			seg := d.trials[popStart[pi]:popStart[pi+1]]
			benign := 0
			for _, t := range seg {
				if t.Outcome == OutMatch || t.Outcome == OutGray {
					benign++
				}
			}
			pr := res.Pops[pop.Name]
			pr.Trials = append(pr.Trials, seg...)
			if d.proven != nil {
				pr.Proven = append(pr.Proven, d.proven[pi])
			}
			res.Scatter[pop.Name] = append(res.Scatter[pop.Name], ScatterPoint{
				Checkpoint: d.ck,
				ValidInsns: d.validInsns,
				Benign:     benign,
				Trials:     pop.Trials,
			})
		}
	}
	if err := parent.Err(); err != nil {
		return res, &CanceledError{TrialsDone: prog.snap.TrialsDone, CheckpointsDone: prog.snap.CheckpointsDone, Err: err}
	}
	return res, nil
}
