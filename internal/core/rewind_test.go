package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// rewindCampaign runs the golden-test campaign at an explicit worker count.
func rewindCampaign(t *testing.T, workers int) *Result {
	t.Helper()
	cfg := goldenConfig()
	cfg.Workers = workers
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resumedGoldenCampaign runs the golden-test campaign with a journal,
// cancels it after its first finished checkpoint, and resumes it to
// completion.
func resumedGoldenCampaign(t *testing.T, workers int) *Result {
	t.Helper()
	cfg := goldenConfig()
	cfg.Workers = workers
	cfg.JournalPath = filepath.Join(t.TempDir(), "campaign.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.OnProgress = func(p Progress) {
		if p.TrialsDone >= 1 {
			cancel()
		}
	}
	if _, err := RunContext(ctx, cfg); err != nil {
		var cerr *CanceledError
		if !errors.As(err, &cerr) {
			t.Fatalf("interrupted run: %v", err)
		}
	}
	cfg.OnProgress = nil
	res, err := Resume(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return res
}

// TestRewindEquivalence is the campaign-scale correctness oracle of the
// undo-journal rewind and the campaign engine: at 1, 4 and 8 workers, and
// after an interrupted run is resumed from its journal, the campaign must
// produce byte-identical exports (JSON and CSV) matching the checked-in
// golden files — which predate the journal rewind, the image pilot and
// the golden sweep, so the goldens pin that none of these mechanisms
// changed the simulator's observable behavior.
func TestRewindEquivalence(t *testing.T) {
	type run struct {
		name string
		res  *Result
	}
	var runs []run
	for _, workers := range []int{1, 4, 8} {
		runs = append(runs, run{fmt.Sprintf("w%d", workers), rewindCampaign(t, workers)})
	}
	runs = append(runs,
		run{"resumed-w1", resumedGoldenCampaign(t, 1)},
		run{"resumed-w4", resumedGoldenCampaign(t, 4)})
	encoders := []struct {
		name   string
		golden string
		write  func(*Result, *bytes.Buffer) error
	}{
		{"json", "export_golden.json", func(r *Result, b *bytes.Buffer) error { return r.WriteJSON(b) }},
		{"csv", "export_golden.csv", func(r *Result, b *bytes.Buffer) error { return r.WriteCSV(b) }},
	}
	for _, enc := range encoders {
		t.Run(enc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", enc.golden))
			if err != nil {
				t.Fatalf("reading golden file: %v", err)
			}
			for _, run := range runs {
				var got bytes.Buffer
				if err := enc.write(run.res, &got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("%s: export deviates from golden\n--- got ---\n%s\n--- want ---\n%s",
						run.name, got.Bytes(), want)
				}
			}
		})
	}
}
