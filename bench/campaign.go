package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"pipefault/internal/core"
	"pipefault/internal/workload"
)

// maxTrials caps the T* search; a workload whose target needs more trials
// per checkpoint is misconfigured.
const maxTrials = 4096

// campaign is one execution of a workload at a fixed number of trials per
// checkpoint: one core.Run per kernel, back to back.
type campaign struct {
	trials  int // per checkpoint
	results []*core.Result
	est     estimate

	wall     time.Duration // sum of the kernels' core.Run wall times
	setup    time.Duration // sum of each core.Run's time to its first resolved trial
	heapPeak uint64        // largest heap-objects sample, bytes
	allocs   uint64        // bytes allocated during the core.Run calls

	drawn     int   // trials drawn
	anomalies int   // of which OutAnomaly
	steps     int64 // cycles simulated by trial attempts
	kinds     [core.NumResolveKinds]int
	hash      string // SHA-256 of the kernels' JSON exports
}

// attempts is the number of trial attempts the engine reported (a retried
// trial reports once per attempt).
func (c *campaign) attempts() int {
	n := 0
	for _, k := range c.kinds {
		n += k
	}
	return n
}

// session runs the campaigns of one invocation and keeps every one it ran:
// all of them count toward attempted, failed and set-up time.
type session struct {
	w    *Workload
	seed int64
	// tune adjusts each kernel's config; the reference run uses it to turn
	// every acceleration off.
	tune      func(*core.Config)
	log       io.Writer
	campaigns []*campaign
	problems  []string // failed output checks
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/heap/allocs:bytes"}}

// readHeap returns the bytes in live and not-yet-swept heap objects and the
// bytes allocated so far.
func readHeap() (objects, allocated uint64) {
	s := make([]metrics.Sample, len(heapSample))
	copy(s, heapSample)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// run executes the workload at trials per checkpoint. With rec set, the
// campaign's spans are recorded.
func (s *session) run(trials int, rec *recorder) (*campaign, error) {
	c := &campaign{trials: trials}
	h := sha256.New()
	for _, k := range s.w.Kernels {
		cfg := s.w.config(k, s.seed, trials)
		if s.tune != nil {
			s.tune(&cfg)
		}
		var mu sync.Mutex
		var first time.Time
		cfg.OnTrialResolved = func(kind core.ResolveKind, steps int) {
			now := time.Now()
			mu.Lock()
			if first.IsZero() {
				first = now
			}
			c.steps += int64(steps)
			c.kinds[kind]++
			if rec != nil {
				rec.trial(now, kind, steps)
			}
			mu.Unlock()
		}
		// OnProgress runs on this goroutine, serially.
		cfg.OnProgress = func(p core.Progress) {
			obj, _ := readHeap()
			c.heapPeak = max(c.heapPeak, obj)
			if rec != nil {
				rec.progress(time.Now(), p)
			}
		}

		runtime.GC()
		_, alloc0 := readHeap()
		start := time.Now()
		if rec != nil {
			rec.beginRun(k.Name, start)
		}
		res, err := core.Run(cfg)
		end := time.Now()
		if rec != nil {
			rec.endRun(end)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: core.Run: %w", k.Name, err)
		}
		obj, alloc1 := readHeap()
		c.heapPeak = max(c.heapPeak, obj)
		c.allocs += alloc1 - alloc0
		c.wall += end.Sub(start)
		if !first.IsZero() {
			c.setup += first.Sub(start)
		}
		p := res.Pops[pop]
		c.drawn += p.Total()
		c.anomalies += p.AnomalyCount()
		if err := res.WriteJSON(h); err != nil {
			return nil, fmt.Errorf("%s: export: %w", k.Name, err)
		}
		c.results = append(c.results, res)
	}
	c.hash = hex.EncodeToString(h.Sum(nil))
	c.est = estimateOf(c.results)
	s.campaigns = append(s.campaigns, c)
	fmt.Fprintf(s.log, "bench: %s seed %d at %d trials/checkpoint: %.3f s (set-up %.3f s), fail %.2f%% ± %.2f%%\n",
		s.w.Name, s.seed, trials, c.wall.Seconds(), c.setup.Seconds(), 100*c.est.Rate, 100*c.est.CI)
	return c, nil
}

// search finds T*, the smallest trial count per checkpoint whose campaign
// meets the workload's target half-width H, starting from hint:
//  1. run the campaign at hint;
//  2. take the CI of each per-checkpoint prefix of its Result;
//  3. if none meets H, raise the hint and go back to 1.
//
// It returns T*, that prefix's estimate, and the hint campaign when T*
// equals the hint (that campaign is then the run at T*). The raise is 25%,
// or more when the achieved CI shows more is needed: the half-width falls
// as the square root of the trials.
func (s *session) search(hint int) (int, estimate, *campaign, error) {
	h := s.w.TargetCI
	for {
		c, err := s.run(hint, nil)
		if err != nil {
			return 0, estimate{}, nil, err
		}
		if t, e := smallestPrefix(c.results, hint, h); t > 0 {
			if t == hint {
				return t, e, c, nil
			}
			return t, e, nil, nil
		}
		next := int(math.Ceil(1.25 * float64(hint)))
		if need := int(math.Ceil(float64(hint) * (c.est.CI / h) * (c.est.CI / h))); need > next {
			next = need
		}
		if next > maxTrials {
			return 0, estimate{}, nil, fmt.Errorf("%s: %d trials per checkpoint do not reach ±%.2f%% (at %d: ±%.2f%%)",
				s.w.Name, maxTrials, 100*h, hint, 100*c.est.CI)
		}
		hint = next
	}
}

// warmUp runs one small untimed campaign so the first timed one does not
// pay for growing the Go heap.
func warmUp() error {
	_, err := core.Run(core.Config{
		Workload:    workload.Tiny,
		Checkpoints: 2,
		Populations: []core.Population{{Name: pop, Trials: 8}},
		Workers:     1,
		Seed:        1,
	})
	return err
}
