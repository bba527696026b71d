package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"pipefault/internal/state"
)

// The campaign journal (Config.JournalPath) makes campaigns durable: the
// aggregation goroutine appends one JSON line per completed checkpoint —
// its golden-run validInsns, proven strata and every trial — as the
// checkpoint's results fold in. Resume reads the journal back, verifies
// its header against the campaign's identity (workload, seed, schedule,
// populations, protection), and re-runs every checkpoint the journal does
// not fully cover. Because a checkpoint's trials depend only on (Seed,
// checkpoint index), the re-run checkpoints produce exactly the trials the
// interrupted run would have, and the resumed Result — and its exports —
// are byte-identical to an uninterrupted run's.
//
// The format is append-only JSONL: a header line, then unit records. A
// process killed mid-write leaves at most one torn final line, which the
// reader drops; every complete line is a complete unit. Units may appear
// in any order and may duplicate (a resumed run can re-journal a unit the
// torn tail lost); the reader keeps the first occurrence of each head and
// trial. Journals written by earlier engines hold a head record plus one
// record per trial batch; the reader accepts those too, and a checkpoint
// they cover only in part is re-run whole.

// journalVersion is bumped when the record encoding changes; a version
// mismatch is a header mismatch.
const journalVersion = 1

// ErrJournalMismatch reports a journal whose header does not match the
// resuming campaign's identity: resuming would splice trials from a
// different campaign into the result.
var ErrJournalMismatch = errors.New("core: campaign journal belongs to a different campaign configuration")

// journalHeader pins the identity of the campaign a journal belongs to:
// every field that affects trial results. Scheduling knobs (Workers,
// TrialTimeout) are deliberately absent — they never perturb results, so
// a campaign may be resumed with different parallelism than it started
// with.
type journalHeader struct {
	V            int          `json:"v"`
	Benchmark    string       `json:"benchmark"`
	Seed         int64        `json:"seed"`
	Checkpoints  int          `json:"checkpoints"`
	Horizon      int          `json:"horizon"`
	LockedCycles int          `json:"locked_cycles"`
	WarmupCycles int          `json:"warmup_cycles"`
	Protect      string       `json:"protect"`
	Recovery     int          `json:"recovery"`
	Prove        bool         `json:"prove,omitempty"`
	Model        string       `json:"fault_model,omitempty"`
	Populations  []journalPop `json:"populations"`
}

type journalPop struct {
	Name      string `json:"name"`
	LatchOnly bool   `json:"latch_only,omitempty"`
	Trials    int    `json:"trials"`
}

// journalHeaderFor derives the journal identity from a defaulted Config.
func journalHeaderFor(cfg *Config) journalHeader {
	h := journalHeader{
		V:            journalVersion,
		Benchmark:    cfg.Workload.Name,
		Seed:         cfg.Seed,
		Checkpoints:  cfg.Checkpoints,
		Horizon:      cfg.Horizon,
		LockedCycles: lockedCycles,
		WarmupCycles: cfg.WarmupCycles,
		Protect:      fmt.Sprintf("%+v", cfg.Protect),
		Recovery:     int(cfg.Recovery),
		// Prove restricts sampling to the unproven population, so which
		// bits the trial RNG stream lands on depends on it. omitempty keeps
		// ProveOff journals byte-identical to pre-prover ones, which stay
		// resumable. CrossCheck is deliberately absent: the oracle can
		// only abort a campaign, never change its results.
		Prove: cfg.Prove == ProveOn,
		// The fault model decides what every trial injects and simulates.
		// modelIdent maps TransientFlip (and nil) to "", so omitempty keeps
		// default-model journals byte-identical to pre-interface ones, which
		// stay resumable.
		Model: modelIdent(cfg.Model),
	}
	for _, p := range cfg.Populations {
		h.Populations = append(h.Populations, journalPop{Name: p.Name, LatchOnly: p.LatchOnly, Trials: p.Trials})
	}
	return h
}

func (h journalHeader) equal(o journalHeader) bool {
	if h.V != o.V || h.Benchmark != o.Benchmark || h.Seed != o.Seed ||
		h.Checkpoints != o.Checkpoints || h.Horizon != o.Horizon ||
		h.LockedCycles != o.LockedCycles || h.WarmupCycles != o.WarmupCycles ||
		h.Protect != o.Protect || h.Recovery != o.Recovery ||
		h.Prove != o.Prove || h.Model != o.Model ||
		len(h.Populations) != len(o.Populations) {
		return false
	}
	for i := range h.Populations {
		if h.Populations[i] != o.Populations[i] {
			return false
		}
	}
	return true
}

// journalUnit is one journal record. A head record (Head == true)
// carries the checkpoint's golden-run validInsns; a trial record carries
// a contiguous run of the checkpoint's flat trial sequence starting at
// Start. The engine writes one record per checkpoint that is both (head +
// full trial run); earlier engines wrote a head record and one record per
// trial batch, and the reader accepts either shape.
type journalUnit struct {
	Ck     int              `json:"ck"`
	Head   bool             `json:"head,omitempty"`
	Valid  int              `json:"valid,omitempty"`
	Start  int              `json:"start,omitempty"`
	Proven []journalStratum `json:"proven,omitempty"` // head only, Prove on
	Trials []journalTrial   `json:"trials,omitempty"`
}

// journalStratum is the wire form of a ProvenStratum; the checkpoint is
// implied by the unit's Ck. Head records carry one stratum per population
// so a resumed Prove-on campaign re-weights its rates identically to an
// uninterrupted run.
type journalStratum struct {
	P uint64 `json:"p"` // proven-benign bits
	T uint64 `json:"t"` // total injectable bits
	N int    `json:"n"` // sampled trials in this stratum
}

// journalTrial is the wire form of a Trial. Checkpoint is implied by the
// unit's Ck; everything else round-trips exactly, so a journal-replayed
// Trial is indistinguishable from a freshly run one.
type journalTrial struct {
	O  uint8    `json:"o"`
	M  uint8    `json:"m,omitempty"`
	C  uint8    `json:"c,omitempty"`
	K  uint8    `json:"k,omitempty"`
	E  string   `json:"e"`
	B  int32    `json:"b"`
	Cy int32    `json:"cy,omitempty"`
	A  *Anomaly `json:"a,omitempty"`
}

func toJournalTrial(t Trial) journalTrial {
	return journalTrial{
		O: uint8(t.Outcome), M: uint8(t.Mode), C: uint8(t.Category), K: uint8(t.Kind),
		E: t.Elem, B: t.Bit, Cy: t.Cycles, A: t.Anomaly,
	}
}

func (jt journalTrial) trial(ck int) Trial {
	return Trial{
		Outcome: Outcome(jt.O), Mode: FailureMode(jt.M),
		Category: state.Category(jt.C), Kind: state.Kind(jt.K),
		Elem: jt.E, Bit: jt.B, Cycles: jt.Cy, Checkpoint: int32(ck), Anomaly: jt.A,
	}
}

// campaignJournal appends unit records to the journal file. It is only
// ever touched from the single aggregation goroutine, so it needs no
// locking; a nil *campaignJournal is a no-op sink. Each record is flushed
// to the OS as it is written (no fsync — the journal is a best-effort
// resume aid, and a torn tail is tolerated by design). The first write
// error sticks and surfaces from close; later writes are dropped so a
// full disk degrades the journal, not the campaign.
type campaignJournal struct {
	f   *os.File
	bw  *bufio.Writer
	err error
}

// openJournal creates (fresh run: truncating any stale journal) or opens
// for append (resume) the journal at path, writing the header if the file
// is empty.
func openJournal(path string, hdr journalHeader, resume bool) (*campaignJournal, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: campaign journal: %w", err)
	}
	j := &campaignJournal{f: f, bw: bufio.NewWriter(f)}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("core: campaign journal: %w", err)
	}
	if st.Size() == 0 {
		j.writeLine(hdr)
		if j.err != nil {
			f.Close()
			return nil, j.err
		}
	}
	return j, nil
}

func (j *campaignJournal) writeLine(v any) {
	if j == nil || j.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err == nil {
		b = append(b, '\n')
		_, err = j.bw.Write(b)
	}
	if err == nil {
		err = j.bw.Flush()
	}
	if err != nil {
		j.err = fmt.Errorf("core: campaign journal: %w", err)
	}
}

// checkpoint appends one completed checkpoint as a combined record.
func (j *campaignJournal) checkpoint(ck, valid int, proven []ProvenStratum, trials []Trial) {
	if j == nil {
		return
	}
	u := journalUnit{Ck: ck, Head: true, Valid: valid}
	for _, ps := range proven {
		u.Proven = append(u.Proven, journalStratum{P: ps.Proven, T: ps.Total, N: ps.Trials})
	}
	u.Trials = make([]journalTrial, len(trials))
	for i, t := range trials {
		u.Trials[i] = toJournalTrial(t)
	}
	j.writeLine(u)
}

// close flushes and closes the journal, surfacing the first write error.
func (j *campaignJournal) close() error {
	if j == nil {
		return nil
	}
	err := j.err
	if cerr := j.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("core: campaign journal: %w", cerr)
	}
	return err
}

// priorUnits is a journal replayed into per-checkpoint coverage: which
// flat trial indices already have results and which checkpoints have
// their golden-run head. An empty priorUnits (every fresh run) covers
// nothing. It is written once by the reader and then only read by the
// engine, which takes journal-complete checkpoints from it and re-runs
// every other checkpoint whole.
type priorUnits struct {
	valid  []int     // validInsns per checkpoint; -1 = head not journaled
	trials [][]Trial // flat trial slots, allocated on first coverage
	have   [][]bool
	cov    []int             // covered slot count per checkpoint
	proven [][]ProvenStratum // head's proven strata; nil when Prove off
	total  int               // trials per checkpoint
}

func emptyPrior(checkpoints, totalPerCk int) *priorUnits {
	p := &priorUnits{
		valid:  make([]int, checkpoints),
		trials: make([][]Trial, checkpoints),
		have:   make([][]bool, checkpoints),
		cov:    make([]int, checkpoints),
		proven: make([][]ProvenStratum, checkpoints),
		total:  totalPerCk,
	}
	for i := range p.valid {
		p.valid[i] = -1
	}
	return p
}

// place records a contiguous run of journaled trials, keeping the first
// occurrence on duplicates. Out-of-range records (a journal from a larger
// campaign would fail the header check first; this is pure defense) are
// dropped.
func (p *priorUnits) place(ck, start int, ts []Trial) {
	if ck < 0 || ck >= len(p.trials) || start < 0 || start > p.total || len(ts) > p.total-start {
		return
	}
	if p.trials[ck] == nil {
		p.trials[ck] = make([]Trial, p.total)
		p.have[ck] = make([]bool, p.total)
	}
	for i, t := range ts {
		if !p.have[ck][start+i] {
			p.have[ck][start+i] = true
			p.trials[ck][start+i] = t
			p.cov[ck]++
		}
	}
}

// completeCk reports whether the journal fully covers checkpoint ck: its
// head is known and every trial slot is filled.
func (p *priorUnits) completeCk(ck int) bool {
	return p.valid[ck] >= 0 && p.cov[ck] == p.total
}

// sound reports whether u is a record a campaign with header hdr could
// have written: a non-negative validInsns, in-range outcomes and failure
// modes, and on a head one proven stratum per population (none when the
// prover is off), each sampling that population's trials and proving no
// more bits than it holds. Replaying anything else would crash
// aggregation or silently re-weight the rates, so the reader treats an
// unsound record as damage.
func (u *journalUnit) sound(hdr *journalHeader) bool {
	for _, jt := range u.Trials {
		if Outcome(jt.O) < OutMatch || Outcome(jt.O) >= NumOutcomes || FailureMode(jt.M) >= NumFailureModes {
			return false
		}
	}
	if !u.Head {
		return true
	}
	want := 0
	if hdr.Prove {
		want = len(hdr.Populations)
	}
	if u.Valid < 0 || len(u.Proven) != want {
		return false
	}
	for i, js := range u.Proven {
		if js.N != hdr.Populations[i].Trials || js.P > js.T {
			return false
		}
	}
	return true
}

// readJournal replays the journal at path. A missing file is an empty
// prior (resuming a campaign that never started is just running it). A
// torn final line — the signature of a killed writer — is dropped;
// corruption earlier in the file, whether unparsable or unsound (see
// journalUnit.sound), truncates the replay at the damage, the worst case
// being re-running checkpoints the lost tail had finished.
func readJournal(path string, hdr journalHeader, checkpoints, totalPerCk int) (*priorUnits, error) {
	prior := emptyPrior(checkpoints, totalPerCk)
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return prior, nil
		}
		return nil, fmt.Errorf("core: campaign journal: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 64*1024*1024) // anomaly stacks can be large
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("core: campaign journal: %w", err)
		}
		return prior, nil // empty file: nothing to replay
	}
	var got journalHeader
	if err := json.Unmarshal(bytes.TrimSpace(sc.Bytes()), &got); err != nil {
		return nil, fmt.Errorf("core: campaign journal %s: bad header: %w", path, err)
	}
	if !got.equal(hdr) {
		return nil, fmt.Errorf("%w (journal %s is for %s seed=%d ckpts=%d)",
			ErrJournalMismatch, path, got.Benchmark, got.Seed, got.Checkpoints)
	}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var u journalUnit
		if err := json.Unmarshal(line, &u); err != nil || !u.sound(&hdr) {
			break // torn or damaged line: replay what precedes it
		}
		if u.Ck < 0 || u.Ck >= checkpoints {
			continue
		}
		if u.Head && prior.valid[u.Ck] < 0 {
			prior.valid[u.Ck] = u.Valid
			if len(u.Proven) > 0 {
				ps := make([]ProvenStratum, len(u.Proven))
				for i, js := range u.Proven {
					ps[i] = ProvenStratum{Checkpoint: u.Ck, Proven: js.P, Total: js.T, Trials: js.N}
				}
				prior.proven[u.Ck] = ps
			}
		}
		if len(u.Trials) > 0 {
			ts := make([]Trial, len(u.Trials))
			for i, jt := range u.Trials {
				ts[i] = jt.trial(u.Ck)
			}
			prior.place(u.Ck, u.Start, ts)
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("core: campaign journal: %w", err)
	}
	return prior, nil
}

// A CanceledError reports a campaign stopped by context cancellation. The
// Result returned alongside it is a complete partial result: every
// checkpoint it contains finished all its trials before the workers
// drained, and with a campaign journal configured, a later Resume picks
// up the missing units.
type CanceledError struct {
	// TrialsDone counts trials whose results were aggregated (journal-
	// replayed units included).
	TrialsDone int64
	// CheckpointsDone counts fully completed checkpoints.
	CheckpointsDone int
	// Err is the context's error (context.Canceled or DeadlineExceeded).
	Err error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("core: campaign cancelled after %d trials (%d checkpoints complete): %v",
		e.TrialsDone, e.CheckpointsDone, e.Err)
}

func (e *CanceledError) Unwrap() error { return e.Err }
