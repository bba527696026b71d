package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"pipefault/internal/core"
	"pipefault/internal/workload"
)

// pop is the single injection population every benchmark campaign uses.
// The prefix shortcut (see prefix) is exact only for one population,
// because populations share their checkpoint's RNG stream.
const pop = "l+r"

//go:embed workloads.json
var defaultTable []byte

// Workload is one benchmark workload: a campaign shape and the precision it
// must reach. The table lives in workloads.json.
type Workload struct {
	Name string `json:"name"`
	// Kernels run back to back; the precision target applies to the
	// core.Merge of their results.
	Kernels []Kernel `json:"kernels"`
	// Model and Duration are the faultsim -fault-model and -fault-duration
	// values.
	Model    string `json:"model"`
	Duration int    `json:"duration,omitempty"`
	// Checkpoints per kernel.
	Checkpoints int `json:"checkpoints"`
	// TargetCI is H, the CI95 half-width the failure rate must reach.
	TargetCI float64 `json:"target_ci"`
	// TrialsHint is the first per-checkpoint trial count the T* search
	// tries; when it already equals T*, an invocation costs one campaign
	// before the timed ones.
	TrialsHint int `json:"trials_hint"`
	// Reference is the failure rate of the same workload with every
	// acceleration off, written by -reference.
	Reference *Reference `json:"reference,omitempty"`

	model core.FaultModel
}

// Kernel is one workload kernel and the warm-up that places its checkpoint
// window. Warmup is core.Config.WarmupCycles: checkpoints are drawn from
// [Warmup, end of program - horizon), so a warm-up near the end of the
// program confines them to one program phase. That keeps the seed from
// moving the failure rate and the trial cost between phases, which would
// swamp the run-to-run spread.
type Kernel struct {
	Name   string `json:"name"`
	Warmup int    `json:"warmup,omitempty"`

	w *workload.Workload
}

// Reference is an unaccelerated campaign's failure rate at a seed the
// timed runs do not use. CI is the half-width at 99.9% confidence over
// checkpoints (see estimate.spread), so that it covers where other seeds'
// checkpoints land, not only the binomial noise at fixed checkpoints.
type Reference struct {
	Rate        float64 `json:"rate"`
	CI          float64 `json:"ci"`
	Seed        int64   `json:"seed"`
	Checkpoints int     `json:"checkpoints"` // per kernel
	Trials      int     `json:"trials_per_checkpoint"`
	Command     string  `json:"command"`
}

// loadTable parses the embedded workload table.
func loadTable() ([]*Workload, error) {
	var t struct {
		Workloads []*Workload `json:"workloads"`
	}
	if err := json.Unmarshal(defaultTable, &t); err != nil {
		return nil, fmt.Errorf("parsing workload table: %w", err)
	}
	for _, w := range t.Workloads {
		if err := w.resolve(); err != nil {
			return nil, err
		}
	}
	return t.Workloads, nil
}

// resolve validates the entry and looks up its kernels and fault model.
func (w *Workload) resolve() error {
	switch {
	case len(w.Kernels) == 0:
		return fmt.Errorf("workload %q: no kernels", w.Name)
	case w.Checkpoints < 1:
		return fmt.Errorf("workload %q: checkpoints must be >= 1", w.Name)
	case !(w.TargetCI > 0 && w.TargetCI < 1):
		return fmt.Errorf("workload %q: target_ci must be in (0, 1)", w.Name)
	case w.TrialsHint < minTrials:
		return fmt.Errorf("workload %q: trials_hint must be >= %d", w.Name, minTrials)
	}
	var err error
	if w.model, err = core.ParseFaultModel(w.Model, w.Duration); err != nil {
		return fmt.Errorf("workload %q: %w", w.Name, err)
	}
	for i := range w.Kernels {
		k := &w.Kernels[i]
		if k.w, err = workload.ByName(k.Name); err != nil {
			return fmt.Errorf("workload %q: %w", w.Name, err)
		}
	}
	return nil
}

// config is the campaign configuration of one kernel at trials per
// checkpoint. One worker: the benchmark is a closed loop running one
// campaign at a time, so the busy goroutines are that worker and the
// engine's checkpoint pilot.
func (w *Workload) config(k Kernel, seed int64, trials int) core.Config {
	return core.Config{
		Workload:     k.w,
		Checkpoints:  w.Checkpoints,
		WarmupCycles: k.Warmup,
		Populations:  []core.Population{{Name: pop, Trials: trials}},
		Workers:      1,
		Model:        w.model,
		Seed:         seed,
	}
}

func find(table []*Workload, name string) (*Workload, error) {
	for _, w := range table {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(table))
	for i, w := range table {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
