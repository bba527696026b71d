package core

import (
	"context"

	"pipefault/internal/prove"
	"pipefault/internal/state"
)

// ProofCoverage is one checkpoint's static-prover survey: the partition of
// the injectable population that the prover certifies benign, broken down
// per (category, rule). It is the data behind cmd/pipeprove.
type ProofCoverage struct {
	Checkpoint int             `json:"checkpoint"`
	Cycle      uint64          `json:"cycle"`
	Rows       []prove.CatRule `json:"rows"`
	Proven     uint64          `json:"proven_bits"`       // proven, latches+RAMs
	Total      uint64          `json:"total_bits"`        // injectable, latches+RAMs
	ProvenL    uint64          `json:"proven_latch_bits"` // proven, latches only
	TotalL     uint64          `json:"total_latch_bits"`  // injectable, latches only
}

// SurveyProofs runs the measurement pass, selects the exact checkpoint
// schedule the campaign cfg describes, and computes the static prover's
// partition at every checkpoint — without sampling a single trial. The
// survey is deterministic: same config, same coverage.
func SurveyProofs(cfg Config) ([]ProofCoverage, error) {
	s, err := setupCampaign(cfg)
	if err != nil {
		return nil, err
	}
	_, warm, cycles, err := s.schedule()
	if err != nil {
		return nil, err
	}
	// The prover always runs — a ProveOff survey would be empty — on one
	// survey worker.
	s.cfg.Prove, s.cfg.Workers = ProveOn, 1

	// The golden sweep the campaign runs hands each checkpoint to one
	// worker machine, where the prover partitions the population.
	w := newWorker(s.cfg, s.newMachine())
	f := w.m.F
	out := make([]ProofCoverage, 0, len(cycles))
	returned := make(chan *ckWindow, len(cycles))
	runSweep(context.Background(), s.cfg, walkStart(warm, s.newMachine, cycles), cycles, nil, returned, func(win *ckWindow) bool {
		w.restore(win)
		proof := w.computeProof(w.g)
		out = append(out, ProofCoverage{
			Checkpoint: win.ck,
			Cycle:      cycles[win.ck],
			Rows:       proof.Coverage(),
			Proven:     proof.ProvenBits(false),
			Total:      f.InjectableBits(false),
			ProvenL:    proof.ProvenBits(true),
			TotalL:     f.InjectableBits(true),
		})
		returned <- win
		return true
	})
	return out, nil
}

// SurveyCategoryBits returns the injectable-bit inventory per category,
// letting coverage consumers express proven bits as a fraction of each
// category's population. Ordered like state.Categories().
func SurveyCategoryBits(cfg Config) ([]CategoryBits, error) {
	s, err := setupCampaign(cfg)
	if err != nil {
		return nil, err
	}
	inv := s.newMachine().F.CategoryBits()
	var out []CategoryBits
	for _, cat := range state.Categories() {
		c, ok := inv[cat]
		if !ok || c.Latch+c.RAM == 0 {
			continue
		}
		out = append(out, CategoryBits{Category: cat, Latch: uint64(c.Latch), RAM: uint64(c.RAM)})
	}
	return out, nil
}

// CategoryBits is one category's injectable-bit inventory.
type CategoryBits struct {
	Category state.Category `json:"-"`
	Latch    uint64         `json:"latch_bits"`
	RAM      uint64         `json:"ram_bits"`
}
