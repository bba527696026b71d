// Package pipefault reproduces Wang, Quek, Rafacz & Patel,
// "Characterizing the Effects of Transient Faults on a High-Performance
// Processor Pipeline" (DSN 2004), as a pure-Go library.
//
// It bundles a latch-accurate out-of-order Alpha-subset pipeline model, a
// functional reference simulator, an assembler and a SPECint2000-shaped
// workload suite, a bit-granular fault-injection engine with the paper's
// outcome taxonomy, the four Section 4 lightweight protection mechanisms,
// and renderers for every table and figure of the paper's evaluation.
//
// Quick start:
//
//	res, err := pipefault.RunCampaign(pipefault.CampaignConfig{
//		Workload:    pipefault.WorkloadByName("gzip"),
//		Checkpoints: 20,
//		Populations: []pipefault.Population{{Name: "l+r", Trials: 25}},
//		Seed:        1,
//	})
//	fmt.Println(res) // outcome mix: uArch Match / Gray / SDC / Terminated
package pipefault

import (
	"context"
	"fmt"

	"pipefault/internal/asm"
	"pipefault/internal/core"
	"pipefault/internal/isa"
	"pipefault/internal/report"
	"pipefault/internal/state"
	"pipefault/internal/uarch"
	"pipefault/internal/workload"
)

// Re-exported fault-injection types (see internal/core for full docs).
type (
	// CampaignConfig parameterizes a microarchitectural injection campaign.
	CampaignConfig = core.Config
	// Population selects latch+RAM or latch-only injection.
	Population = core.Population
	// CampaignResult is a campaign's aggregated outcome.
	CampaignResult = core.Result
	// PopResult is one population's trials.
	PopResult = core.PopResult
	// Trial is a single fault injection record.
	Trial = core.Trial
	// Outcome is the per-trial classification (µArch Match / SDC / ...).
	Outcome = core.Outcome
	// FailureMode is the Table 2 failure taxonomy.
	FailureMode = core.FailureMode
	// FaultModel is a microarchitectural injection fault model (transient
	// flip, stuck-at, multi-bit; see core.FaultModel).
	FaultModel = core.FaultModel
	// TransientFlip is the paper's default model: one transient bit flip.
	TransientFlip = core.TransientFlip
	// StuckAt is a windowed, intermittent or permanent stuck-at fault.
	StuckAt = core.StuckAt
	// MultiBit is an adjacent-bit multi-bit upset within one entry.
	MultiBit = core.MultiBit
	// SoftModel is a Section 5 software-level fault model.
	SoftModel = core.SoftModel
	// SoftResult is a software-level campaign result.
	SoftResult = core.SoftResult
	// SoftEngine caches a workload profile across software fault models.
	SoftEngine = core.SoftEngine

	// Workload is one benchmark kernel.
	Workload = workload.Workload

	// MachineConfig parameterizes the pipeline model.
	MachineConfig = uarch.Config
	// ProtectConfig selects the Section 4 protection mechanisms.
	ProtectConfig = uarch.ProtectConfig
	// Machine is the latch-accurate pipeline model.
	Machine = uarch.Machine
	// RetireEvent is one retired instruction's architectural effects.
	RetireEvent = uarch.RetireEvent

	// Program is an assembled binary image.
	Program = asm.Program
)

// Re-exported outcome constants.
const (
	OutMatch      = core.OutMatch
	OutGray       = core.OutGray
	OutSDC        = core.OutSDC
	OutTerminated = core.OutTerminated
)

// Re-exported retirement event kinds.
const (
	RetOther  = uarch.RetOther
	RetReg    = uarch.RetReg
	RetStore  = uarch.RetStore
	RetPal    = uarch.RetPal
	RetBranch = uarch.RetBranch
)

// PAL function codes of the simulator's syscall convention.
const (
	PalHalt   = isa.PalHalt
	PalPutC   = isa.PalPutC
	PalPutInt = isa.PalPutInt
	PalPutHex = isa.PalPutHex
)

// Re-exported fault models (Figure 11).
const (
	ModelRegBit32   = core.ModelRegBit32
	ModelRegBit64   = core.ModelRegBit64
	ModelRegRandom  = core.ModelRegRandom
	ModelInsnBit    = core.ModelInsnBit
	ModelNop        = core.ModelNop
	ModelBranchFlip = core.ModelBranchFlip
)

// Workloads returns the SPECint2000-shaped benchmark suite.
func Workloads() []*Workload { return workload.Suite() }

// WorkloadByName returns a suite benchmark by name; it panics on unknown
// names (use workload.ByName for an error-returning variant).
func WorkloadByName(name string) *Workload {
	w, err := workload.ByName(name)
	if err != nil {
		panic(fmt.Sprintf("pipefault: %v", err))
	}
	return w
}

// RunCampaign executes a microarchitectural fault-injection campaign
// (Sections 2-4 of the paper). Checkpoints are spread across
// cfg.Workers goroutines (default: all CPUs); the worker count never
// affects the result, only wall-clock time.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	return core.Run(cfg)
}

// RunCampaignContext is RunCampaign with graceful cancellation: when ctx
// is cancelled, in-flight work drains, and the error is a
// *core.CanceledError alongside a partial CampaignResult holding every
// checkpoint that completed. With cfg.JournalPath set, completed
// checkpoints are journaled as they finish and ResumeCampaign can pick the campaign
// back up.
func RunCampaignContext(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	return core.RunContext(ctx, cfg)
}

// ResumeCampaign replays the campaign journal at cfg.JournalPath, re-runs
// only the checkpoints it does not fully cover, and returns a result byte-identical
// in its exports to an uninterrupted run. A journal written under a
// different campaign identity is refused with core.ErrJournalMismatch.
func ResumeCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	return core.Resume(ctx, cfg)
}

// MergeResults aggregates per-benchmark results (the paper's averages).
// Mixing protected and unprotected results sets the aggregate's
// MixedProtection flag; use MergeResultsStrict to reject it instead.
func MergeResults(name string, rs []*CampaignResult) *CampaignResult {
	return core.Merge(name, rs)
}

// MergeResultsStrict is MergeResults, except that mixing protected and
// unprotected results is an error.
func MergeResultsStrict(name string, rs []*CampaignResult) (*CampaignResult, error) {
	return core.MergeStrict(name, rs)
}

// NewSoftEngine profiles a workload for Section 5 software-level injection.
func NewSoftEngine(w *Workload) (*SoftEngine, error) {
	return core.NewSoftEngine(w)
}

// RunSoftware executes one software-level fault-model campaign.
func RunSoftware(w *Workload, model SoftModel, trials int, seed int64) (*SoftResult, error) {
	return core.RunSoftware(w, model, trials, seed)
}

// SoftModels lists the six Section 5 software-level fault models.
func SoftModels() []SoftModel { return core.SoftModels() }

// ParseFaultModel maps a fault-model flag value (transient, stuck0,
// stuck1, intermittent, permanent, mbu2) and its duration to a FaultModel
// for CampaignConfig.Model.
func ParseFaultModel(name string, duration int) (FaultModel, error) {
	return core.ParseFaultModel(name, duration)
}

// AllProtections enables all four Section 4 mechanisms: timeout flush,
// register file ECC, register-pointer ECC, and instruction-word parity.
func AllProtections() ProtectConfig { return uarch.AllProtections() }

// NewMachine builds a pipeline model loaded with the given program.
func NewMachine(cfg MachineConfig, prog *Program) *Machine {
	return uarch.New(cfg, prog)
}

// Assemble builds a program from Alpha-subset assembly source.
func Assemble(source string) (*Program, error) { return asm.Assemble(source) }

// StateInventory renders the paper's Table 1 for a machine configuration.
func StateInventory(protect ProtectConfig) string {
	f := state.New()
	uarch.BuildStateFile(f, protect)
	f.Freeze()
	return report.Table1(f)
}

// StateBits returns the total injectable latch and RAM bit counts of a
// machine configuration (the Table 1 totals).
func StateBits(protect ProtectConfig) (latch, ram int) {
	f := state.New()
	uarch.BuildStateFile(f, protect)
	f.Freeze()
	for _, v := range f.CategoryBits() {
		latch += v.Latch
		ram += v.RAM
	}
	return latch, ram
}

// Report renderers for every figure (see internal/report).
var (
	// RenderFigure3 renders per-benchmark outcome mixes.
	RenderFigure3 = report.Figure3
	// RenderByCategory renders Figures 4, 5 and 9.
	RenderByCategory = report.ByCategory
	// RenderFigure6 renders the utilization/masking scatter.
	RenderFigure6 = report.Figure6
	// RenderFigure7 renders the failure-mode matrix.
	RenderFigure7 = report.Figure7
	// RenderFigure8 renders failure contributions (also Figure 10).
	RenderFigure8 = report.Figure8
	// RenderFigure11 renders software fault-model outcomes.
	RenderFigure11 = report.Figure11
	// RenderFailureReduction renders the Section 4.4 comparison.
	RenderFailureReduction = report.FailureReduction
	// RenderHotspots renders the most vulnerable individual elements.
	RenderHotspots = report.Hotspots
	// RenderUtilization renders structure occupancy vs masking.
	RenderUtilization = report.UtilizationTable
	// RenderYBranch renders wrong-path reconvergence results.
	RenderYBranch = report.YBranch
)

// RunYBranch forces random conditional branches to the wrong direction and
// measures control-flow reconvergence (the Y-branches side study).
func RunYBranch(w *Workload, trials int, seed int64) (*core.YBranchResult, error) {
	return core.RunYBranch(w, trials, seed)
}
