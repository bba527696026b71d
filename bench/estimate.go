package main

import (
	"math"

	"pipefault/internal/core"
	"pipefault/internal/stats"
)

// zCheck is the two-sided 99.9% normal quantile. The reference check runs
// on every invocation and its tolerance is the sum of two such half-widths,
// so a correct build fails at most one run in a thousand; with 95%
// half-widths it could fail one in twenty.
const zCheck = 3.2905267314919255

// estimate is a campaign's failure rate (SDC + Terminated) with two
// half-widths.
type estimate struct {
	Rate float64
	// CI is the CI95 half-width as the engine computes it: stratified over
	// the prover's checkpoint strata when they exist, plain binomial
	// otherwise. It is conditional on the campaign's checkpoints; H applies
	// to it.
	CI float64
	// Spread is the 99.9% half-width of the mean over checkpoints of each
	// checkpoint's rate, per kernel. It includes how much the rate moves
	// with the checkpoints a seed picks, so it is the width to compare
	// campaigns run at different seeds.
	Spread float64
}

// prefix returns r restricted to the first t trials of every checkpoint.
// This is exactly the Result of the same campaign run at t trials per
// checkpoint: each checkpoint draws its trials from one RNG stream in
// flat-index order, so its first t trials do not depend on how many follow.
func prefix(r *core.Result, t int) *core.Result {
	p := r.Pops[pop]
	q := &core.PopResult{Name: p.Name}
	for i := 0; i < len(p.Trials); {
		j := i
		for j < len(p.Trials) && p.Trials[j].Checkpoint == p.Trials[i].Checkpoint {
			j++
		}
		q.Trials = append(q.Trials, p.Trials[i:min(j, i+t)]...)
		i = j
	}
	for _, s := range p.Proven {
		s.Trials = min(s.Trials, t)
		q.Proven = append(q.Proven, s)
	}
	out := *r
	out.Pops = map[string]*core.PopResult{pop: q}
	out.Scatter = nil
	return &out
}

// ckSample is one checkpoint's classified trials and failures among them;
// proven is the share of the population the prover took out of sampling (0
// without the prover).
type ckSample struct {
	proven      float64
	trials, hit int
}

// samples splits a population's trials by checkpoint. Trials arrive in
// checkpoint order, and prover strata, when present, pair with the
// checkpoints in that order.
func samples(p *core.PopResult) []ckSample {
	var out []ckSample
	for i := 0; i < len(p.Trials); {
		var s ckSample
		if k := len(out); k < len(p.Proven) {
			s.proven = p.Proven[k].Frac()
		}
		j := i
		for ; j < len(p.Trials) && p.Trials[j].Checkpoint == p.Trials[i].Checkpoint; j++ {
			switch p.Trials[j].Outcome {
			case core.OutAnomaly:
				continue
			case core.OutSDC, core.OutTerminated:
				s.hit++
			}
			s.trials++
		}
		out = append(out, s)
		i = j
	}
	return out
}

// estimateOf computes the failure estimate of one campaign: one Result per
// kernel, all run with the same configuration.
func estimateOf(results []*core.Result) estimate {
	var e estimate
	e.Rate = core.Merge("", results).Pops[pop].FailureRate()
	stratified := len(results[0].Pops[pop].Proven) > 0
	var strata []stats.Stratum
	var plain stats.Proportion
	var spreadVar float64
	for _, r := range results {
		ss := samples(r.Pops[pop])
		rates := make([]float64, len(ss))
		for i, s := range ss {
			strata = append(strata, stats.Stratum{Proven: s.proven, Successes: s.hit, Trials: s.trials})
			plain.Successes += s.hit
			plain.Trials += s.trials
			if s.trials > 0 {
				rates[i] = (1 - s.proven) * float64(s.hit) / float64(s.trials)
			}
		}
		spreadVar += variance(rates) / float64(len(rates))
	}
	if stratified {
		e.CI = stats.StratifiedCI95(strata)
	} else {
		e.CI = plain.CI95()
	}
	e.Spread = zCheck * math.Sqrt(spreadVar) / float64(len(results))
	return e
}

// variance is the unbiased sample variance (0 for fewer than two values).
func variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := stats.Mean(xs)
	var v float64
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return v / float64(len(xs)-1)
}

// minTrials is the smallest per-checkpoint prefix the T* search considers.
// With fewer trials a checkpoint's sample rate is too often exactly 0 or 1,
// which makes its binomial variance estimate 0 and lets a tiny prefix meet
// any target.
const minTrials = 8

// smallestPrefix returns T*, the smallest t in [minTrials, trials] whose
// prefix of results meets the target half-width h, with that prefix's
// estimate; T* is 0 when no prefix does.
func smallestPrefix(results []*core.Result, trials int, h float64) (int, estimate) {
	for t := minTrials; t <= trials; t++ {
		pre := make([]*core.Result, len(results))
		for i, r := range results {
			pre[i] = prefix(r, t)
		}
		if e := estimateOf(pre); e.CI <= h {
			return t, e
		}
	}
	return 0, estimate{}
}
