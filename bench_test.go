package pipefault

// One benchmark per table and figure of the paper's evaluation. Each runs a
// reduced-scale version of the corresponding experiment and prints the same
// rows/series the paper reports; cmd/faultsim regenerates them at full
// scale. Benchmarks report domain metrics (masking %, failure %) through
// b.ReportMetric.
//
// Run with: go test -bench=. -benchtime=1x

import (
	"fmt"
	"runtime"
	"testing"

	"pipefault/internal/core"
	"pipefault/internal/state"
	"pipefault/internal/uarch"
	"pipefault/internal/workload"
)

// benchCampaign runs one reduced campaign per listed benchmark and returns
// the per-benchmark results. Scale: 4 checkpoints x trials.
func benchCampaign(b *testing.B, benches []*workload.Workload, protect uarch.ProtectConfig,
	pops []core.Population) []*core.Result {
	b.Helper()
	var out []*core.Result
	for i, w := range benches {
		res, err := core.Run(core.Config{
			Workload:    w,
			Protect:     protect,
			Checkpoints: 4,
			Populations: pops,
			Seed:        int64(1000 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

var benchSubset = []*workload.Workload{workload.Gzip, workload.Mcf, workload.Twolf}

func BenchmarkTable1StateInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		baseL, baseR := StateBits(ProtectConfig{})
		protL, protR := StateBits(AllProtections())
		if i == 0 {
			b.Logf("\n%s", StateInventory(ProtectConfig{}))
			b.Logf("protection overhead: %d bits (paper: 3061)",
				protL+protR-baseL-baseR)
			b.ReportMetric(float64(baseL+baseR), "bits")
		}
	}
}

func BenchmarkFigure3ByBenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchCampaign(b, benchSubset, ProtectConfig{}, []core.Population{
			{Name: "l+r", Trials: 12},
			{Name: "l", LatchOnly: true, Trials: 6},
		})
		if i == 0 {
			b.Logf("\n%s", RenderFigure3(results, []string{"l+r", "l"}))
			agg := MergeResults("average", results)
			b.ReportMetric(100*agg.Pops["l+r"].MaskRate(), "match%")
		}
	}
}

func BenchmarkFigure4ByCategoryLatchRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchCampaign(b, benchSubset, ProtectConfig{},
			[]core.Population{{Name: "l+r", Trials: 16}})
		if i == 0 {
			agg := MergeResults("average", results)
			b.Logf("\n%s", RenderByCategory("Figure 4 (reduced).", agg.Pops["l+r"]))
			b.ReportMetric(100*agg.Pops["l+r"].FailureRate(), "fail%")
		}
	}
}

func BenchmarkFigure5ByCategoryLatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchCampaign(b, benchSubset, ProtectConfig{},
			[]core.Population{{Name: "l", LatchOnly: true, Trials: 16}})
		if i == 0 {
			agg := MergeResults("average", results)
			b.Logf("\n%s", RenderByCategory("Figure 5 (reduced).", agg.Pops["l"]))
			b.ReportMetric(100*agg.Pops["l"].FailureRate(), "fail%")
		}
	}
}

func BenchmarkFigure6UtilizationScatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchCampaign(b, benchSubset, ProtectConfig{},
			[]core.Population{{Name: "l+r", Trials: 16}})
		if i == 0 {
			agg := MergeResults("average", results)
			b.Logf("\n%s", RenderFigure6(agg.Scatter["l+r"]))
		}
	}
}

func BenchmarkFigure7FailureModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchCampaign(b, benchSubset, ProtectConfig{},
			[]core.Population{{Name: "l+r", Trials: 16}})
		if i == 0 {
			agg := MergeResults("average", results)
			b.Logf("\n%s", RenderFigure7("Figure 7 (reduced).", agg.Pops["l+r"]))
		}
	}
}

func BenchmarkFigure8FailureContributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchCampaign(b, benchSubset, ProtectConfig{},
			[]core.Population{{Name: "l+r", Trials: 16}})
		if i == 0 {
			agg := MergeResults("average", results)
			b.Logf("\n%s", RenderFigure8("Figure 8 (reduced).", agg.Pops["l+r"]))
		}
	}
}

func BenchmarkFigure9ProtectedByCategory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := benchCampaign(b, benchSubset, AllProtections(),
			[]core.Population{{Name: "l+r", Trials: 16}})
		if i == 0 {
			agg := MergeResults("average", results)
			b.Logf("\n%s", RenderByCategory("Figure 9 (reduced, protected).", agg.Pops["l+r"]))
			b.ReportMetric(100*agg.Pops["l+r"].FailureRate(), "fail%")
		}
	}
}

func BenchmarkFigure10ProtectedContributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		unprot := benchCampaign(b, benchSubset, ProtectConfig{},
			[]core.Population{{Name: "l+r", Trials: 16}})
		prot := benchCampaign(b, benchSubset, AllProtections(),
			[]core.Population{{Name: "l+r", Trials: 16}})
		if i == 0 {
			uAgg := MergeResults("average", unprot)
			pAgg := MergeResults("average", prot)
			b.Logf("\n%s", RenderFigure8("Figure 10 (reduced, protected).", pAgg.Pops["l+r"]))
			baseL, baseR := StateBits(ProtectConfig{})
			protL, protR := StateBits(AllProtections())
			over := float64(protL+protR-baseL-baseR) / float64(baseL+baseR)
			b.Logf("\n%s", RenderFailureReduction(uAgg.Pops["l+r"], pAgg.Pops["l+r"], over))
		}
	}
}

func BenchmarkFigure11SoftwareMasking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var results []*core.SoftResult
		for wi, w := range benchSubset {
			en, err := core.NewSoftEngine(w)
			if err != nil {
				b.Fatal(err)
			}
			for mi, model := range core.SoftModels() {
				res, err := en.RunModel(model, 25, int64(2000+10*wi+mi))
				if err != nil {
					b.Fatal(err)
				}
				results = append(results, res)
			}
		}
		if i == 0 {
			b.Logf("\n%s", RenderFigure11(results))
		}
	}
}

// campaignAtWorkers runs one multi-checkpoint campaign with the given
// worker count; the serial/parallel benchmark pair below shares it so the
// two measurements differ only in parallelism.
func campaignAtWorkers(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{
			Workload:    workload.Gzip,
			Checkpoints: 8,
			Populations: []core.Population{{Name: "l+r", Trials: 24}},
			Workers:     workers,
			Seed:        4242,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Pops["l+r"].Total()), "trials")
		}
	}
}

// BenchmarkCampaignSerial is the single-worker baseline of the campaign
// engine; compare against BenchmarkCampaignParallel for the
// speedup (the results themselves are bit-identical).
func BenchmarkCampaignSerial(b *testing.B) {
	campaignAtWorkers(b, 1)
}

// BenchmarkCampaignParallel runs the same campaign across all CPUs.
func BenchmarkCampaignParallel(b *testing.B) {
	campaignAtWorkers(b, runtime.NumCPU())
}

// BenchmarkPipelineCycles measures raw simulation speed (cycles/sec).
func BenchmarkPipelineCycles(b *testing.B) {
	prog, err := workload.Gzip.Program()
	if err != nil {
		b.Fatal(err)
	}
	m := NewMachine(MachineConfig{}, prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Halted() {
			b.StopTimer()
			m = NewMachine(MachineConfig{}, prog)
			b.StartTimer()
		}
		m.Step()
	}
}

// BenchmarkFunctionalSim measures the architectural simulator's speed
// (instructions/sec).
func BenchmarkFunctionalSim(b *testing.B) {
	cpu, err := workload.Gzip.NewCPU()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cpu.Halted {
			b.StopTimer()
			cpu, _ = workload.Gzip.NewCPU()
			b.StartTimer()
		}
		if _, exc := cpu.Step(); exc != nil {
			b.Fatal(exc)
		}
	}
}

// Example of the library's top-level API (also verifies it compiles in
// docs).
func ExampleRunCampaign() {
	res, err := RunCampaign(CampaignConfig{
		Workload:    WorkloadByName("tiny"),
		Checkpoints: 1,
		Horizon:     500,
		Populations: []Population{{Name: "l+r", Trials: 2}},
		Seed:        1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Benchmark, res.Pops["l+r"].Total())
	// Output: tiny 2
}

// BenchmarkAblationRecoveryStyle contrasts the two misprediction-recovery
// designs (DESIGN.md ablation): the paper-style drain-and-copy recovery
// makes the architectural RAT/free-list hot, while 21264-style walk-back
// leaves them cold — which is visible both in IPC and in the archrat
// vulnerability.
func BenchmarkAblationRecoveryStyle(b *testing.B) {
	for _, style := range []struct {
		name string
		rs   uarch.RecoveryStyle
	}{{"archcopy", uarch.RecoveryArchCopy}, {"walkback", uarch.RecoveryWalkback}} {
		style := style
		b.Run(style.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Workload:    workload.Vpr,
					Recovery:    style.rs,
					Checkpoints: 4,
					Populations: []core.Population{{Name: "l+r", Trials: 20}},
					Seed:        77,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					archratFail := 0.0
					byCat := res.Pops["l+r"].ByCategory()
					if c, ok := byCat[state.CatArchRAT]; ok {
						n := c[core.OutMatch] + c[core.OutGray] + c[core.OutSDC] + c[core.OutTerminated]
						if n > 0 {
							archratFail = float64(c[core.OutSDC]+c[core.OutTerminated]) / float64(n)
						}
					}
					b.ReportMetric(res.IPC, "ipc")
					b.ReportMetric(100*res.Pops["l+r"].FailureRate(), "fail%")
					b.Logf("%s: ipc=%.2f fail=%.1f%% archrat-fail=%.0f%%",
						style.name, res.IPC, 100*res.Pops["l+r"].FailureRate(), 100*archratFail)
				}
			}
		})
	}
}
