// Campaign: a fuller microarchitectural injection campaign over two
// benchmarks, reproducing the paper's Figures 4 (per-category outcomes),
// 6 (utilization vs masking), 7 (failure modes) and 8 (contributions) at
// reduced scale.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"pipefault"
	"pipefault/internal/workload"
)

func main() {
	// Checkpoints are spread across a worker pool; Workers only changes
	// wall-clock time, never the results (trial RNGs are derived from the
	// seed and checkpoint index). Workers: 0 also means NumCPU.
	workers := runtime.NumCPU()
	start := time.Now()
	var results []*pipefault.CampaignResult
	for i, w := range []*pipefault.Workload{workload.Crafty, workload.Vortex} {
		res, err := pipefault.RunCampaign(pipefault.CampaignConfig{
			Workload:    w,
			Checkpoints: 6,
			Populations: []pipefault.Population{
				{Name: "l+r", Trials: 20},
				{Name: "l", LatchOnly: true, Trials: 10},
			},
			Workers: workers,
			Seed:    int64(5 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
		results = append(results, res)
	}
	fmt.Printf("campaigns took %.1fs on %d workers\n", time.Since(start).Seconds(), workers)

	agg := pipefault.MergeResults("average", results)
	fmt.Println()
	fmt.Print(pipefault.RenderByCategory("Per-category outcomes (latches+RAMs):", agg.Pops["l+r"]))
	fmt.Println()
	fmt.Print(pipefault.RenderFigure6(agg.Scatter["l+r"]))
	fmt.Println()
	fmt.Print(pipefault.RenderFigure7("Failure modes by category:", agg.Pops["l+r"]))
	fmt.Println()
	fmt.Print(pipefault.RenderFigure8("Failure contributions:", agg.Pops["l+r"]))
}
