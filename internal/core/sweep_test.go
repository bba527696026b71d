package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pipefault/internal/workload"
)

// TestSweepSchedules drives the golden sweep through the schedules that
// stress its sharing: duplicate checkpoint cycles (selectCheckpoints draws
// with replacement), windows that run past the architectural halt, a
// journal-complete checkpoint inside an overlapping cluster on Resume,
// cancellation while windows are open, and windows longer than 65,535
// cycles. Every handed window must equal a one-checkpoint sweep's, and
// exports must be byte-identical at Workers 1/4/8 and after resume. On
// the gzip bench schedule the sweep must step each fault-free cycle once.
func TestSweepSchedules(t *testing.T) {
	cfg := stealTestConfig() // Horizon 600
	newMachine, _, total := campaignFixture(t, &cfg)
	c := total / 3
	// An overlapping cluster with a duplicate, a gap, two windows the halt
	// cuts short, and one checkpoint past the halt.
	cycles := []uint64{c, c + 200, c + 200, c + 900, total - 300, total - 100, total + 1000}
	reached := len(cycles) - 1
	cfg.Checkpoints = len(cycles)

	campaign := func(t *testing.T, workers int, journal string, resume bool) []byte {
		t.Helper()
		cfg := cfg
		cfg.Workers = workers
		cfg.JournalPath = journal
		newMachine, res, _ := campaignFixture(t, &cfg)
		res, err := runCampaign(context.Background(), cfg, newMachine, nil, cycles, res, resume)
		if err != nil {
			t.Fatal(err)
		}
		for _, pop := range cfg.Populations {
			if got := len(res.Scatter[pop.Name]); got != reached {
				t.Fatalf("%s: %d checkpoints aggregated, want %d", pop.Name, got, reached)
			}
		}
		j, csv := exportBytes(t, res)
		return append(j, csv...)
	}

	t.Run("windows", func(t *testing.T) {
		wins := sweepWindows(cfg, newMachine(), cycles, nil)
		if len(wins) != reached {
			t.Fatalf("sweep handed %d windows, want %d (the last checkpoint lies past the halt)", len(wins), reached)
		}
		for i, w := range wins {
			m := newMachine()
			walkTo(m, cycles[i])
			ref := sweepWindows(cfg, m, cycles[i:i+1], nil)[0]
			goldenRunsEqual(t, fmt.Sprintf("checkpoint %d", i), &w.g, &ref.g)
		}
		goldenRunsEqual(t, "duplicate", &wins[2].g, &wins[1].g)
	})

	want := campaign(t, 1, "", false)
	t.Run("workers", func(t *testing.T) {
		for _, workers := range []int{4, 8} {
			if got := campaign(t, workers, "", false); !bytes.Equal(got, want) {
				t.Errorf("Workers %d: exports differ from Workers 1", workers)
			}
		}
	})

	t.Run("resume-inside-cluster", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "campaign.jsonl")
		if got := campaign(t, 2, path, false); !bytes.Equal(got, want) {
			t.Fatal("journaled campaign's exports differ")
		}
		// Keep the header and checkpoint 1 only: the resumed sweep opens
		// every window of the cluster but that one.
		keepJournalCheckpoints(t, path, 1)
		for _, workers := range []int{1, 4} {
			if got := campaign(t, workers, path, true); !bytes.Equal(got, want) {
				t.Errorf("Workers %d: resumed exports differ from an uninterrupted run", workers)
			}
			keepJournalCheckpoints(t, path, 1)
		}
	})

	t.Run("cancel-mid-sweep", func(t *testing.T) {
		cfg := cfg
		cfg.Workers = 2
		newMachine, res, _ := campaignFixture(t, &cfg)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Cancel from the sweep itself, 300 cycles into the cluster, while
		// three windows are open and none has closed.
		steps := 0
		testSweepSteps = func() {
			if steps++; steps == int(c+200+100) {
				cancel()
			}
		}
		defer func() { testSweepSteps = nil }()
		_, err := runCampaign(ctx, cfg, newMachine, nil, cycles, res, false)
		var cerr *CanceledError
		if !errors.As(err, &cerr) {
			t.Fatalf("cancelled campaign returned %v, want a *CanceledError", err)
		}
		if cerr.CheckpointsDone != 0 {
			t.Errorf("%d checkpoints done, want 0: no window had closed", cerr.CheckpointsDone)
		}
	})

	t.Run("horizon-past-16-bits", func(t *testing.T) {
		// Window-relative stamps and log positions must not wrap at 65,535
		// cycles; most of these windows step the halted machine.
		cfg := cfg
		cfg.Horizon = 70_000
		cycles := []uint64{c, c + 100}
		wins := sweepWindows(cfg, newMachine(), cycles, nil)
		if len(wins) != len(cycles) {
			t.Fatalf("sweep handed %d windows, want %d", len(wins), len(cycles))
		}
		for i, w := range wins {
			m := newMachine()
			walkTo(m, cycles[i])
			ref := sweepWindows(cfg, m, cycles[i:i+1], nil)[0]
			goldenRunsEqual(t, fmt.Sprintf("checkpoint %d", i), &w.g, &ref.g)
		}
	})

	t.Run("gzip-steps-once", func(t *testing.T) {
		if testing.Short() {
			t.Skip("gzip measurement pass")
		}
		s, err := setupCampaign(Config{Workload: workload.Gzip, Checkpoints: 32, Seed: 4242, WarmupCycles: 208_000})
		if err != nil {
			t.Fatal(err)
		}
		_, warm, cycles, err := s.schedule()
		if err != nil {
			t.Fatal(err)
		}
		m := walkStart(warm, s.newMachine, cycles)
		if m != warm {
			t.Fatal("sweep does not start at the warm-up clone")
		}
		from := m.Cycle
		var steps uint64
		testSweepSteps = func() { steps++ }
		defer func() { testSweepSteps = nil }()
		n := 0
		runSweep(context.Background(), s.cfg, m, cycles, nil, nil, func(*ckWindow) bool {
			n++
			return true
		})
		want := cycles[len(cycles)-1] + uint64(s.cfg.Horizon) - from
		if n != len(cycles) || steps != want {
			t.Errorf("sweep handed %d windows in %d steps, want %d in %d ((c_last + Horizon) - warm-up cycle)",
				n, steps, len(cycles), want)
		}
		t.Logf("%d checkpoints, %d steps from cycle %d", n, steps, from)
	})
}

// keepJournalCheckpoints rewrites the campaign journal at path to its
// header and the records of checkpoints keep.
func keepJournalCheckpoints(t *testing.T, path string, keep ...int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<24)
	for first := true; sc.Scan(); first = false {
		var u struct {
			Ck int `json:"ck"`
		}
		if !first {
			if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
				t.Fatal(err)
			}
			found := false
			for _, k := range keep {
				found = found || u.Ck == k
			}
			if !found {
				continue
			}
		}
		out.Write(sc.Bytes())
		out.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
