package core

import (
	"runtime"
	"testing"
	"unsafe"

	"pipefault/internal/workload"
)

// TestCampaignSteadyStateAllocs: a campaign allocates each of its buffers
// once. After its first windows have sized the golden sweep's rings, log,
// views, bases and keyframe deltas, and the worker has sized its proof
// and journals, a checkpoint allocates its Trial slice plus a small fixed
// bound: the proof is refilled, the RNGs are reseeded, and the memory
// images and base snapshots are reused, not allocated anew. A buffer that
// grows to a new peak later (a trial's undo log, a longer delta) may add
// one growth step, so the excess over the per-checkpoint bound, summed
// over the later checkpoints, must stay within one growth allowance. A
// per-checkpoint allocation that recurs exceeds it many times over.
//
// It runs a transient campaign with the prover on and an intermittent one
// (the model draws from a per-trial RNG), both with one worker, and reads
// the cumulative allocation at each OnProgress. It reads it through
// runtime.ReadMemStats, which flushes the per-P allocation caches first:
// /gc/heap/allocs:bytes counts a small object only once its span leaves
// the cache, so it lags by up to a span per size class.
func TestCampaignSteadyStateAllocs(t *testing.T) {
	intermittent, err := ParseFaultModel("intermittent", 100)
	if err != nil {
		t.Fatal(err)
	}
	const (
		checkpoints = 24
		trials      = 8
		sized       = checkpoints / 2 // checkpoints that may size buffers
		perCk       = 2 << 10         // bytes a checkpoint may add to its Trial slice
		growth      = 64 << 10        // later growth steps, in all
	)
	bound := uint64(trials*unsafe.Sizeof(Trial{})) + perCk
	for _, tc := range []struct {
		name  string
		model FaultModel
	}{
		{"transient", nil},
		{"intermittent", intermittent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ms runtime.MemStats
			allocs := make([]uint64, 0, checkpoints)
			cfg := Config{
				Workload:    workload.Gzip,
				Checkpoints: checkpoints,
				Populations: []Population{{Name: "all", Trials: trials}},
				Workers:     1,
				Model:       tc.model,
				Seed:        4242,
				OnProgress: func(Progress) {
					runtime.ReadMemStats(&ms)
					allocs = append(allocs, ms.TotalAlloc)
				},
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if len(allocs) != checkpoints {
				t.Fatalf("%d progress reports, want %d", len(allocs), checkpoints)
			}
			var excess uint64
			for i := sized; i < checkpoints; i++ {
				if a := allocs[i] - allocs[i-1]; a > bound {
					excess += a - bound
				}
			}
			if excess > growth {
				for i := sized; i < checkpoints; i++ {
					t.Logf("checkpoint %d: %d bytes", i, allocs[i]-allocs[i-1])
				}
				t.Errorf("checkpoints %d-%d allocated %d bytes past %d per checkpoint, want at most %d",
					sized, checkpoints-1, excess, bound, growth)
			}
		})
	}
}
