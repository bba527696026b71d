package core

import (
	"context"
	"sort"
	"sync"

	"pipefault/internal/uarch"
)

// The campaign engine. One checkpoint is one unit of work.
//
// Sweep: a single machine steps the fault-free run once (see sweep.go).
// At each checkpoint it captures a portable image (bit-store snapshot +
// copy-on-write memory image) and opens the checkpoint's window; when the
// window's horizon ends it hands the checkpoint, image and golden run, to
// a worker over an unbuffered channel. The sweep waits for a free worker,
// so at most Workers+1 closed windows are resident besides the open ones.
//
// Workers: each worker ranges over the channel, restores the image onto
// its private machine, and runs the checkpoint whole — proof, cross-check
// oracle, then every trial in flat order from the one
// checkpointSeed(Seed, ck) stream — and reports one message.
//
// Determinism: a checkpoint's trials depend only on (Seed, checkpoint
// index), and aggregation folds in checkpoint order, so the Result is
// bit-identical for any Workers.
//
// Robustness: per-trial panics and watchdog expiries are contained inside
// runTrialContained (see engine.go). A cross-check failure, an engine
// panic or the caller's cancellation cancels the campaign context: the
// sweep stops and workers skip queued checkpoints, while checkpoints
// already running finish and report. A campaign journal, when configured,
// lets Resume skip journal-complete checkpoints: the sweep opens no window
// for them.

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

// validInsns counts the in-flight instructions at checkpoint state that
// the golden run retires. Retirement is in order and a refetched
// instruction gets a fresh, larger seqno, so g.events ascends by Seq.
func (w *worker) validInsns() int {
	g := w.g
	n := 0
	w.seqs = w.m.InFlightSeqs(w.seqs[:0])
	for _, s := range w.seqs {
		i := sort.Search(g.nEv, func(i int) bool { return g.event(i).seq >= s })
		if i < g.nEv && g.event(i).seq == s {
			n++
		}
	}
	return n
}

// runCheckpoint runs one checkpoint whole on the worker's machine, which
// must sit at the checkpoint's state with w.g its golden run: proof,
// cross-check, then every trial. popOf maps flat trial index to population
// index; the trials draw their bits from the checkpoint's one RNG stream
// in flat order. Each trial runs inside the containment boundary (see
// runTrialContained), and the machine ends back at checkpoint state.
func (w *worker) runCheckpoint(ck int, popOf []int) ckMsg {
	proof := w.computeProof(w.g)
	msg := ckMsg{ck: ck, validInsns: w.validInsns(), proven: provenStrata(proof, ck, w.cfg.Populations)}
	if msg.err = w.crossCheck(ck, proof); msg.err != nil {
		return msg
	}

	m := w.m
	rng := w.drawRNG
	rng.Seed(checkpointSeed(w.cfg.Seed, ck))
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

// runWorker is one worker's life: restore each checkpoint it receives and
// run it, until the sweep closes the channel. After cancellation it drains
// queued checkpoints without running them. Between checkpoints the
// machine sits exactly at the last image's state (every trial is rolled
// back), so that image is a valid RestoreCheckpoint prev. A finished
// checkpoint's window goes back to the sweep on returned.
func runWorker(ctx context.Context, w *worker, popOf []int, in <-chan *ckWindow, returned chan<- *ckWindow, out chan<- ckMsg) {
	for win := range in {
		if ctx.Err() != nil {
			continue
		}
		w.restore(win)
		msg := w.runCheckpoint(win.ck, popOf)
		w.g = nil
		returned <- win
		out <- msg
	}
}

// restore materializes win on the worker's machine and makes its golden
// run current. The image the machine held before is read for the last
// time here, as RestoreCheckpoint's prev: it rides back to the sweep in
// win.prev, to be reused once win is returned.
func (w *worker) restore(win *ckWindow) {
	w.m.RestoreCheckpoint(&win.snap, win.mem, w.cur)
	win.prev, w.cur = w.cur, win.mem
	w.g = &win.g
}

// runPool runs the golden sweep on machine sweepM and the worker pool on
// fresh machines, and aggregates their results into res. The sweep
// goroutine holds the only reference to sweepM, so it is dropped once the
// sweep finishes.
func runPool(parent context.Context, cfg Config, newMachine func() *uarch.Machine, sweepM *uarch.Machine, cycles []uint64, res *Result, prior *priorUnits, jw *campaignJournal) (*Result, error) {
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
	cfg.Workers = nw // sizes the sweep's rings

	// ctx is cancelled by the caller, a cross-check failure or an engine
	// panic; every path stops the sweep and lets queued checkpoints drain.
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	guard := &engineGuard{}
	// Unbuffered: the sweep runs ahead of the workers by the windows it
	// keeps open, not by a queue of closed ones.
	winCh := make(chan *ckWindow)
	// Windows workers have finished with; never blocks a worker.
	returned := make(chan *ckWindow, len(cycles))
	// One slot per worker: a finished checkpoint never waits on a slow
	// aggregation step (journal write, OnProgress callback).
	msgCh := make(chan ckMsg, nw)

	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard.capture("campaign worker", cancel)
			runWorker(ctx, newWorker(cfg, newMachine()), popOf, winCh, returned, msgCh)
		}()
	}
	go func() {
		defer close(winCh)
		defer guard.capture("golden sweep", cancel)
		runSweep(ctx, cfg, sweepM, cycles, skip, returned, func(win *ckWindow) bool {
			select {
			case winCh <- win:
				return true
			case <-ctx.Done():
				return false
			}
		})
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
