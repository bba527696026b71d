package core

import (
	"context"
	"math/rand"
	"sync"

	"pipefault/internal/mem"
	"pipefault/internal/prove"
	"pipefault/internal/uarch"
)

// The two-phase work-stealing campaign engine.
//
// Phase 1 — reachability: a single pilot machine advances through the
// workload once, capturing at each checkpoint a portable image (bit-store
// snapshot + copy-on-write memory image) and pushing the checkpoint's head
// unit into the pool. The pilot blocks while Config.MaxImages images are
// resident, so campaign memory stays flat no matter how many checkpoints
// the campaign has.
//
// Phase 2 — trial pool: workers pull units from per-worker deques (LIFO
// locally, FIFO when stealing) and serve any checkpoint by materializing
// its image. A checkpoint's head unit computes its golden continuation
// exactly once; the goldenRun is then published immutably and shared by
// every batch unit of that checkpoint, on whichever workers they land.
//
// Determinism: a batch's trial RNG is the per-checkpoint stream
// fast-forwarded by replaying the preceding trials' bit draws (draws
// depend only on the rng and the frozen element layout, never on machine
// state), and aggregation places trials by flat index and folds in
// checkpoint order — so the Result is bit-identical for any Workers,
// TrialBatch and MaxImages.
//
// Robustness: per-trial panics and watchdog expiries are contained inside
// runTrialContained (see engine.go). Cancellation aborts the pool —
// queued units are dropped, executing units finish and report — and a
// campaign journal, when configured, lets Resume skip the units that
// completed: the pilot does not capture images for journal-complete
// checkpoints and head units publish only the missing batches.

// ckImage is one checkpoint's portable image plus its shared trial state.
// snap and mem are immutable after capture; golden, validInsns and
// remaining are written once by the head unit / batch completions under
// the pool lock.
type ckImage struct {
	ck   int
	snap *uarch.Snapshot
	mem  *mem.Image

	golden     *goldenRun   // published by the head unit; read-only after
	proof      *prove.Proof // published with golden; nil under ProveOff
	validInsns int
	remaining  int // unfinished batch units; image leaves the pool at 0
}

// unit is one schedulable piece of work: a checkpoint's head (batch == -1,
// compute the golden continuation) or one trial batch.
type unit struct {
	img   *ckImage
	batch int
}

// stealMsg carries one unit's results to the aggregator.
type stealMsg struct {
	ck         int
	head       bool
	validInsns int             // head only
	proven     []ProvenStratum // head only; nil under ProveOff
	err        error           // head only; cross-check oracle failure
	start      int             // flat index of the batch's first trial
	trials     []Trial         // batch only
}

// stealPool is the shared scheduler state: per-worker deques, the
// resident-image gate for the pilot, and the in-flight unit count that
// lets workers distinguish "no work yet" from "no work ever again".
type stealPool struct {
	mu        sync.Mutex
	cond      *sync.Cond
	deques    [][]unit
	open      int // resident images
	maxOpen   int
	running   int // units currently executing
	pilotDone bool
	aborted   bool
}

func newStealPool(nw, maxOpen int) *stealPool {
	p := &stealPool{deques: make([][]unit, nw), maxOpen: maxOpen}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// abort drains the pool: queued units are abandoned, blocked takers and
// the admitting pilot wake up and exit. Units already executing finish
// normally and their results are still aggregated — abort is the
// "stop dispatching" half of graceful cancellation.
func (p *stealPool) abort() {
	p.mu.Lock()
	p.aborted = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// admit blocks until the pool has room for another resident image, then
// queues the checkpoint's head unit on worker wid's deque. It reports
// false when the pool was aborted while waiting — the pilot stops
// capturing.
func (p *stealPool) admit(img *ckImage, wid int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.open >= p.maxOpen && !p.aborted {
		p.cond.Wait()
	}
	if p.aborted {
		return false
	}
	p.open++
	p.deques[wid] = append(p.deques[wid], unit{img: img, batch: -1})
	p.cond.Broadcast()
	return true
}

func (p *stealPool) pilotFinished() {
	p.mu.Lock()
	p.pilotDone = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// take returns the next unit for worker id: LIFO from its own deque (hot
// image, just-published batches), FIFO-stealing from the other deques
// otherwise. It blocks while the pool may still produce work — a running
// head unit will spawn batches, and the pilot may admit more checkpoints —
// and returns ok == false once the campaign is drained or aborted.
func (p *stealPool) take(id int) (unit, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.aborted {
			return unit{}, false
		}
		if d := p.deques[id]; len(d) > 0 {
			u := d[len(d)-1]
			p.deques[id] = d[:len(d)-1]
			p.running++
			return u, true
		}
		for k := 1; k < len(p.deques); k++ {
			j := (id + k) % len(p.deques)
			if d := p.deques[j]; len(d) > 0 {
				u := d[0]
				p.deques[j] = d[1:]
				p.running++
				return u, true
			}
		}
		if p.pilotDone && p.running == 0 {
			return unit{}, false
		}
		p.cond.Wait()
	}
}

// publish installs a checkpoint's freshly computed golden run and fans the
// listed trial batches out onto the publishing worker's own deque
// (tail-first, so that worker pops the first batch next while thieves take
// from the front). On a resumed campaign batches holds only the units the
// journal does not cover. The pool mutex orders the golden-run write
// before any batch unit becomes visible, so batch executors never observe
// a nil golden.
func (p *stealPool) publish(id int, img *ckImage, g *goldenRun, proof *prove.Proof, validInsns int, batches []int) {
	p.mu.Lock()
	img.golden = g
	img.proof = proof
	img.validInsns = validInsns
	img.remaining = len(batches)
	for i := len(batches) - 1; i >= 0; i-- {
		p.deques[id] = append(p.deques[id], unit{img: img, batch: batches[i]})
	}
	if len(batches) == 0 {
		p.open--
	}
	p.running--
	p.cond.Broadcast()
	p.mu.Unlock()
}

// finishBatch retires one batch unit. The checkpoint's image leaves the
// resident pool when its last batch completes, letting the pilot admit the
// next checkpoint.
func (p *stealPool) finishBatch(img *ckImage) {
	p.mu.Lock()
	img.remaining--
	if img.remaining == 0 {
		p.open--
	}
	p.running--
	p.cond.Broadcast()
	p.mu.Unlock()
}

// runStealPilot is phase 1: one machine steps through the workload once,
// capturing a portable image at every checkpoint cycle. A machine that
// architecturally halts early simply stops admitting checkpoints; the
// unreached ones produce no results.
// Journal-complete checkpoints (skip) are stepped through but not
// captured; a cancelled context stops the pilot at the next checkpoint.
func runStealPilot(ctx context.Context, m *uarch.Machine, cycles []uint64, p *stealPool, skip []bool) {
	m.Mem.BeginImaging()
	defer m.Mem.EndImaging()
	nw := len(p.deques)
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
		img := &ckImage{ck: ck, snap: m.Snapshot(), mem: m.Mem.CaptureImage()}
		if !p.admit(img, ck%nw) {
			return
		}
	}
}

// stealWorker wraps the trial-running worker with the image it currently
// has materialized, so hopping to a unit on the same checkpoint is free
// and hopping between checkpoints is a pointer-diffed image restore.
type stealWorker struct {
	w   *worker
	cur *ckImage
}

// ensureAt materializes img on the worker's machine. Between units the
// machine always sits exactly at its current image's checkpoint state
// (every golden run and trial is rolled back), so the current image is a
// valid RestoreImage prev.
func (sw *stealWorker) ensureAt(img *ckImage) {
	if sw.cur == img {
		return
	}
	var prev *mem.Image
	if sw.cur != nil {
		prev = sw.cur.mem
	}
	sw.w.m.RestoreCheckpoint(img.snap, img.mem, prev)
	sw.cur = img
}

// golden runs the checkpoint's fault-free continuation on the worker's
// machine and rewinds. The goldenRun outlives this worker's visit, shared
// by every batch unit of the checkpoint.
func (w *worker) golden() (*goldenRun, int) {
	m := w.m
	m.BeginJournal()
	m.Mark(&w.ckMark)
	m.Mem.BeginUndo()

	g := w.goldenContinuation()
	m.RollbackTo(&w.ckMark)
	m.CommitJournal()
	m.Mem.Rollback()

	validInsns := 0
	for _, s := range m.InFlightSeqs() {
		if _, ok := g.retired[s]; ok {
			validInsns++
		}
	}
	return g, validInsns
}

// missingBatches lists the batch indices of checkpoint ck the journal does
// not fully cover. A partially covered batch is re-run whole: trials are
// deterministic, so the overlap reproduces the journaled trials exactly.
func missingBatches(prior *priorUnits, ck, totalPerCk, trialBatch, batches int) []int {
	out := make([]int, 0, batches)
	for b := 0; b < batches; b++ {
		start := b * trialBatch
		end := start + trialBatch
		if end > totalPerCk {
			end = totalPerCk
		}
		if !prior.covered(ck, start, end) {
			out = append(out, b)
		}
	}
	return out
}

// runBatch runs one batch of a checkpoint's trials against its shared
// golden run. popOf maps flat trial index to population index; the batch
// replays the preceding draws of the per-checkpoint RNG stream so its bit
// picks land exactly where the serial engine's would. Each trial runs
// inside the containment boundary (see runTrialContained).
func (w *worker) runBatch(img *ckImage, batch int, popOf []int) stealMsg {
	m := w.m
	w.g = img.golden
	start := batch * w.cfg.TrialBatch
	end := start + w.cfg.TrialBatch
	if end > len(popOf) {
		end = len(popOf)
	}

	rng := rand.New(rand.NewSource(checkpointSeed(w.cfg.Seed, img.ck)))
	for i := 0; i < start; i++ {
		drawBit(m.F, img.proof, rng, w.cfg.Populations[popOf[i]].LatchOnly)
	}

	m.BeginJournal()
	m.Mem.BeginUndo()
	trials := make([]Trial, 0, end-start)
	for i := start; i < end; i++ {
		pop := w.cfg.Populations[popOf[i]]
		bit := drawBit(m.F, img.proof, rng, pop.LatchOnly)
		trials = append(trials, w.runTrialContained(bit, img.ck, i))
	}
	m.CommitJournal()
	m.Mem.Rollback()
	return stealMsg{ck: img.ck, start: start, trials: trials}
}

// runStealWorker is one pool worker's life: take a unit, materialize its
// checkpoint, run it, report, repeat until the pool drains.
func runStealWorker(id int, cfg Config, newMachine func() *uarch.Machine, horizonG uint64, p *stealPool, popOf []int, prior *priorUnits, out chan<- stealMsg) {
	sw := &stealWorker{w: newWorker(cfg, newMachine(), horizonG)}
	for {
		u, ok := p.take(id)
		if !ok {
			return
		}
		sw.ensureAt(u.img)
		if u.batch < 0 {
			g, validInsns := sw.w.golden()
			proof := sw.w.computeProof(g)
			strata := provenStrata(proof, u.img.ck, cfg.Populations)
			err := sw.w.crossCheck(u.img.ck, proof)
			var batches []int
			if err == nil {
				nb := (len(popOf) + cfg.TrialBatch - 1) / cfg.TrialBatch
				batches = missingBatches(prior, u.img.ck, len(popOf), cfg.TrialBatch, nb)
			}
			// On a cross-check failure no batches are published: the image
			// leaves the pool immediately and the aggregator aborts it.
			p.publish(id, u.img, g, proof, validInsns, batches)
			out <- stealMsg{ck: u.img.ck, head: true, validInsns: validInsns, proven: strata, err: err}
		} else {
			msg := sw.w.runBatch(u.img, u.batch, popOf)
			p.finishBatch(u.img)
			out <- msg
		}
	}
}

// runSteal is the two-phase work-stealing engine.
func runSteal(ctx context.Context, cfg Config, newMachine func() *uarch.Machine, cycles []uint64, horizonG uint64, res *Result, prior *priorUnits, jw *campaignJournal) (*Result, error) {
	// Flat trial layout: index i of a checkpoint's trial sequence belongs
	// to population popOf[i]. Shared, read-only.
	totalPerCk := 0
	for _, p := range cfg.Populations {
		totalPerCk += p.Trials
	}
	popOf := make([]int, 0, totalPerCk)
	for pi, p := range cfg.Populations {
		for t := 0; t < p.Trials; t++ {
			popOf = append(popOf, pi)
		}
	}
	batches := (totalPerCk + cfg.TrialBatch - 1) / cfg.TrialBatch

	// Journal-complete checkpoints never enter the pool: the pilot steps
	// through them without capturing an image.
	skip := make([]bool, len(cycles))
	for ck := range skip {
		skip[ck] = prior.completeCk(ck)
	}

	nw := cfg.Workers
	if maxUnits := len(cycles) * (1 + batches); nw > maxUnits {
		nw = maxUnits
	}
	if nw < 1 {
		nw = 1
	}

	guard := &engineGuard{}
	pool := newStealPool(nw, cfg.MaxImages)
	msgCh := make(chan stealMsg, 2*nw)

	// Cancellation watcher: a cancelled context aborts the pool, which
	// stops the pilot and lets the workers drain their in-flight units.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-ctx.Done():
			pool.abort()
		case <-stopWatch:
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard.capture("steal worker", pool.abort)
			runStealWorker(i, cfg, newMachine, horizonG, pool, popOf, prior, msgCh)
		}()
	}
	go func() {
		defer pool.pilotFinished()
		defer guard.capture("checkpoint pilot", pool.abort)
		runStealPilot(ctx, newMachine(), cycles, pool, skip)
	}()
	go func() {
		wg.Wait()
		close(msgCh)
	}()

	// Aggregation: place batch results by flat index as they arrive, then
	// fold in checkpoint order so the assembled Result is bit-identical to
	// the serial fold. Journal-covered units are injected up front —
	// complete checkpoints wholesale, partial checkpoints batch by batch —
	// and are not re-journaled.
	type ckAgg struct {
		trials     []Trial
		got        int
		head       bool
		validInsns int
		proven     []ProvenStratum
		done       bool
	}
	aggs := make([]ckAgg, len(cycles))
	prog := newProgressTracker(cfg, len(cycles))
	for ck := range aggs {
		a := &aggs[ck]
		if prior.completeCk(ck) {
			a.trials = append([]Trial(nil), prior.trials[ck]...)
			a.got = totalPerCk
			a.head = true
			a.validInsns = prior.valid[ck]
			a.proven = prior.proven[ck]
			a.done = true
			prog.add(totalPerCk, true)
			continue
		}
		for b := 0; b < batches; b++ {
			start := b * cfg.TrialBatch
			end := start + cfg.TrialBatch
			if end > totalPerCk {
				end = totalPerCk
			}
			if !prior.covered(ck, start, end) {
				continue
			}
			if a.trials == nil {
				a.trials = make([]Trial, totalPerCk)
			}
			copy(a.trials[start:end], prior.trials[ck][start:end])
			a.got += end - start
			prog.add(end-start, false)
		}
	}
	var oracleErr error
	for msg := range msgCh {
		a := &aggs[msg.ck]
		if msg.err != nil {
			// Soundness violation caught by a head unit's cross-check: stop
			// dispatching, drain in-flight units, and surface the first
			// failure. The failing head is not journaled, so a resume
			// re-runs — and re-checks — it.
			if oracleErr == nil {
				oracleErr = msg.err
			}
			pool.abort()
			continue
		}
		if msg.head {
			a.head = true
			a.validInsns = msg.validInsns
			a.proven = msg.proven
			jw.unit(msg.ck, true, msg.validInsns, 0, nil, msg.proven)
		} else {
			if a.trials == nil {
				a.trials = make([]Trial, totalPerCk)
			}
			copy(a.trials[msg.start:], msg.trials)
			a.got += len(msg.trials)
			jw.unit(msg.ck, false, 0, msg.start, msg.trials, nil)
		}
		ckDone := a.head && a.got == totalPerCk && !a.done
		if ckDone {
			a.done = true
		}
		prog.add(len(msg.trials), ckDone)
	}
	if err := guard.get(); err != nil {
		return nil, err
	}
	if oracleErr != nil {
		return nil, oracleErr
	}

	popStart := popStarts(&cfg)
	for ck := range aggs {
		a := &aggs[ck]
		if !a.done {
			continue // checkpoint unreached (halt) or dropped (cancellation)
		}
		for pi, pop := range cfg.Populations {
			seg := a.trials[popStart[pi]:popStart[pi+1]]
			benign := 0
			for _, t := range seg {
				if t.Outcome == OutMatch || t.Outcome == OutGray {
					benign++
				}
			}
			pr := res.Pops[pop.Name]
			pr.Trials = append(pr.Trials, seg...)
			if a.proven != nil {
				pr.Proven = append(pr.Proven, a.proven[pi])
			}
			res.Scatter[pop.Name] = append(res.Scatter[pop.Name], ScatterPoint{
				Checkpoint: ck,
				ValidInsns: a.validInsns,
				Benign:     benign,
				Trials:     pop.Trials,
			})
		}
	}
	if err := ctx.Err(); err != nil {
		return res, &CanceledError{TrialsDone: prog.snap.TrialsDone, CheckpointsDone: prog.snap.CheckpointsDone, Err: err}
	}
	return res, nil
}
