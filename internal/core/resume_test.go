package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// exportBytes renders a result's JSON and CSV exports, the byte-level
// equivalence oracle for the resume tests.
func exportBytes(t *testing.T, r *Result) (jsonB, csvB []byte) {
	t.Helper()
	var j, c bytes.Buffer
	if err := r.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes()
}

// TestResumeEquivalence: kill a journaled campaign mid-flight, then Resume
// it — the final exports must be byte-identical to an uninterrupted run,
// at 1 and 4 workers, and the partial result flushed at cancellation must
// contain only whole checkpoints. A torn final journal line (the crash
// wrote half a record) must be tolerated.
func TestResumeEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("steal-w%d", workers), func(t *testing.T) {
			cfg := stealTestConfig()
			cfg.Workers = workers
			base, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			baseJSON, baseCSV := exportBytes(t, base)

			jcfg := cfg
			jcfg.JournalPath = filepath.Join(t.TempDir(), "campaign.jsonl")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			jcfg.OnProgress = func(p Progress) {
				if p.TrialsDone >= 1 {
					cancel()
				}
			}
			partial, err := RunContext(ctx, jcfg)
			if err != nil {
				// The usual case: the cancel landed before the engine
				// drained, and the partial result holds only the
				// checkpoints that completed.
				var cerr *CanceledError
				if !errors.As(err, &cerr) {
					t.Fatalf("interrupted run: %v", err)
				}
				if partial == nil {
					t.Fatal("cancellation returned no partial result")
				}
				perCk := 0
				for _, p := range jcfg.Populations {
					perCk += p.Trials
				}
				got := 0
				for _, p := range partial.Pops { //pipelint:unordered-ok summing counts is order-independent
					got += p.Total()
				}
				if got%perCk != 0 {
					t.Errorf("partial result holds %d trials, not a whole number of checkpoints (%d per ck)", got, perCk)
				}
				if int64(got) != cerr.TrialsDone {
					t.Errorf("CanceledError reports %d trials done, partial result holds %d", cerr.TrialsDone, got)
				}
			}

			// Emulate a torn final record: the process died mid-write.
			f, err := os.OpenFile(jcfg.JournalPath, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`{"ck":0,"trials":[{"o":`); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			jcfg.OnProgress = nil
			resumed, err := Resume(context.Background(), jcfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			gotJSON, gotCSV := exportBytes(t, resumed)
			if !bytes.Equal(gotJSON, baseJSON) {
				t.Errorf("resumed JSON export differs from the uninterrupted run:\n--- base ---\n%s\n--- resumed ---\n%s", baseJSON, gotJSON)
			}
			if !bytes.Equal(gotCSV, baseCSV) {
				t.Errorf("resumed CSV export differs from the uninterrupted run:\n--- base ---\n%s\n--- resumed ---\n%s", baseCSV, gotCSV)
			}
		})
	}
}

// TestResumeCompleteJournal: resuming a campaign whose journal already
// covers every unit replays the result without running a single trial.
func TestResumeCompleteJournal(t *testing.T) {
	t.Run("steal", func(t *testing.T) {
		cfg := stealTestConfig()
		cfg.Workers = 2
		cfg.JournalPath = filepath.Join(t.TempDir(), "campaign.jsonl")
		base, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		baseJSON, baseCSV := exportBytes(t, base)

		var ran atomic.Int32
		testTrialHook = func(ck, idx, attempt int) { ran.Add(1) }
		defer func() { testTrialHook = nil }()
		resumed, err := Resume(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("resume of a complete journal re-ran %d trials", n)
		}
		gotJSON, gotCSV := exportBytes(t, resumed)
		if !bytes.Equal(gotJSON, baseJSON) || !bytes.Equal(gotCSV, baseCSV) {
			t.Error("replayed exports differ from the original run")
		}
	})
}

// copyFixture copies a testdata journal into a fresh temp file, since
// Resume appends to the journal it replays.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestResumeCombinedRecordJournal: journals written by earlier engines
// must stay resumable. The checkpoint-sharded engine wrote one combined
// record per checkpoint (head plus every trial), the shape the engine
// writes today; the work-stealing engine wrote a head record plus one
// record per trial batch (here batches of 3, so a checkpoint spans three
// records). Each fixture was recorded from its engine on stealTestConfig at
// Workers 2, once complete and once cut short. A complete journal must
// replay without running a trial; a cut one must re-run exactly the
// checkpoints it does not fully cover — a partly covered checkpoint whole
// — and finish with exports byte-identical to a fresh run.
func TestResumeCombinedRecordJournal(t *testing.T) {
	cfg := stealTestConfig()
	cfg.Workers = 2
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := exportBytes(t, fresh)
	perCk := 0
	for _, p := range cfg.Populations {
		perCk += p.Trials
	}

	var mu sync.Mutex
	ran := map[int][]int{} // checkpoint -> flat trial indices run
	testTrialHook = func(ck, idx, attempt int) {
		mu.Lock()
		ran[ck] = append(ran[ck], idx)
		mu.Unlock()
	}
	defer func() { testTrialHook = nil }()

	for _, tc := range []struct {
		fixture string
		rerun   []int // checkpoints the resume must run whole
	}{
		{"shard_journal.jsonl", nil},
		{"shard_journal_truncated.jsonl", []int{1, 2}}, // ends after checkpoint 0
		{"batch_journal.jsonl", nil},
		{"batch_journal_truncated.jsonl", []int{1}}, // checkpoint 1 holds its head and one batch
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			clear(ran)
			jcfg := cfg
			jcfg.JournalPath = copyFixture(t, tc.fixture)
			resumed, err := Resume(context.Background(), jcfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			want := map[int][]int{}
			for _, ck := range tc.rerun {
				for i := 0; i < perCk; i++ {
					want[ck] = append(want[ck], i)
				}
			}
			for ck := range ran { //pipelint:unordered-ok sorting each checkpoint's own indices is order-independent
				sort.Ints(ran[ck])
			}
			if !reflect.DeepEqual(ran, want) {
				t.Errorf("resume ran trials %v, want %v", ran, want)
			}
			gotJSON, gotCSV := exportBytes(t, resumed)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("resumed JSON export differs from a fresh run:\n--- fresh ---\n%s\n--- resumed ---\n%s", wantJSON, gotJSON)
			}
			if !bytes.Equal(gotCSV, wantCSV) {
				t.Error("resumed CSV export differs from a fresh run")
			}
		})
	}
}

// TestResumeJournalMismatch: a journal written under a different campaign
// identity (here, another seed) must be refused, not silently replayed.
func TestResumeJournalMismatch(t *testing.T) {
	cfg := stealTestConfig()
	cfg.JournalPath = filepath.Join(t.TempDir(), "campaign.jsonl")
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	_, err := Resume(context.Background(), cfg)
	if !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("resume with a different seed: err = %v, want ErrJournalMismatch", err)
	}
}

// TestResumeRequiresJournal: Resume without a journal path is a config
// error, caught before any simulation work.
func TestResumeRequiresJournal(t *testing.T) {
	cfg := stealTestConfig()
	_, err := Resume(context.Background(), cfg)
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "JournalPath" {
		t.Fatalf("err = %v, want a ConfigError on JournalPath", err)
	}
}
