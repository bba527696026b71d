package main

import (
	"io"
	"reflect"
	"testing"

	"pipefault/internal/core"
)

// smallGzip is a two-checkpoint gzip campaign: the smallest real kernel
// run that exercises the prover strata and early stopping.
func smallGzip() *Workload {
	return &Workload{
		Name:        "gzip-small",
		Kernels:     []Kernel{{Name: "gzip"}},
		Model:       "transient",
		Checkpoints: 2,
		TargetCI:    0.2,
		TrialsHint:  16,
	}
}

func newSession(t *testing.T, w *Workload, seed int64) *session {
	t.Helper()
	if err := w.resolve(); err != nil {
		t.Fatal(err)
	}
	return &session{w: w, seed: seed, log: io.Discard}
}

// TestPrefixIsCampaign pins the property the T* search rests on: the first
// t trials of every checkpoint of a longer campaign are, bit for bit, the
// campaign run at t. If an engine change breaks it (say, trials stop
// drawing from one stream per checkpoint in flat-index order), this fails.
func TestPrefixIsCampaign(t *testing.T) {
	for _, w := range []*Workload{tinyWorkload(), smallGzip()} {
		s := newSession(t, w, 11)
		long, err := s.run(16, nil)
		if err != nil {
			t.Fatal(err)
		}
		short, err := s.run(9, nil)
		if err != nil {
			t.Fatal(err)
		}
		pre := make([]*core.Result, len(long.results))
		for i, r := range long.results {
			pre[i] = prefix(r, 9)
			if !reflect.DeepEqual(pre[i].Pops, short.results[i].Pops) {
				t.Fatalf("%s: prefix of the 16-trial campaign differs from the 9-trial campaign", w.Name)
			}
		}
		if got := estimateOf(pre); got != short.est {
			t.Fatalf("%s: prefix estimate %+v, direct campaign %+v", w.Name, got, short.est)
		}
	}
}

// TestSearch checks that the T* search keeps a hint equal to T*, grows one
// that is too small and shrinks one that is too large, reaching the same
// T* each time.
func TestSearch(t *testing.T) {
	s := newSession(t, tinyWorkload(), 5)
	tStar, _, c, err := s.search(64)
	if err != nil {
		t.Fatal(err)
	}
	if tStar <= minTrials || tStar >= 64 || c != nil {
		t.Fatalf("from hint 64: T* = %d (campaign reused: %v); want minTrials < T* < 64, shrunk", tStar, c != nil)
	}
	search := func(hint int) (int, int, bool) {
		s.campaigns = nil
		got, _, c, err := s.search(hint)
		if err != nil {
			t.Fatal(err)
		}
		return got, len(s.campaigns), c != nil
	}
	// A minimal hint costs one campaign, which is the campaign at T*.
	if got, n, reused := search(tStar); got != tStar || n != 1 || !reused {
		t.Errorf("hint T*=%d: T* = %d after %d campaigns (reused %v); want one reused campaign", tStar, got, n, reused)
	}
	// A hint below T* grows until a prefix meets the target.
	if got, n, _ := search(minTrials); got != tStar || n < 2 {
		t.Errorf("hint %d: T* = %d after %d campaigns; want %d after at least 2", minTrials, got, n, tStar)
	}
}
