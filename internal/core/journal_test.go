package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// journalTestHeader is the journal identity of stealTestConfig, the
// campaign every testdata journal fixture was recorded from.
func journalTestHeader(t testing.TB) (Config, journalHeader) {
	t.Helper()
	cfg := stealTestConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.setDefaults()
	return cfg, journalHeaderFor(&cfg)
}

// fixtureLines reads a testdata journal as its lines.
func fixtureLines(t testing.TB, name string) [][]byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSpace(b), []byte("\n"))
}

// TestReadJournalRejectsBadRecords: a record no campaign with the
// journal's header could have written is damage, like an unparsable line —
// replay stops there. Otherwise an out-of-range outcome or failure mode
// would crash aggregation (an outcome of 9 indexes past the outcome
// counts), and a head whose proven strata don't match the populations
// would re-weight the rates or index past its strata. Each row damages
// checkpoint 1 of the complete combined-record fixture; checkpoint 0
// before it must replay, checkpoint 2 after it must not, and the resumed
// campaign must still match a fresh run byte for byte.
func TestReadJournalRejectsBadRecords(t *testing.T) {
	cfg, hdr := journalTestHeader(t)
	lines := fixtureLines(t, "shard_journal.jsonl")
	if len(lines) != 4 {
		t.Fatalf("fixture has %d lines, want header + 3 checkpoints", len(lines))
	}
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := exportBytes(t, fresh)

	for _, tc := range []struct {
		name   string
		damage func(u *journalUnit)
	}{
		{"outcome-out-of-range", func(u *journalUnit) { u.Trials[0].O = 9 }},
		{"outcome-zero", func(u *journalUnit) { u.Trials[1].O = 0 }},
		{"mode-out-of-range", func(u *journalUnit) { u.Trials[2].M = uint8(NumFailureModes) }},
		{"negative-valid", func(u *journalUnit) { u.Valid = -1 }},
		{"strata-missing", func(u *journalUnit) { u.Proven = u.Proven[:1] }},
		{"strata-extra", func(u *journalUnit) { u.Proven = append(u.Proven, u.Proven[0]) }},
		{"strata-none", func(u *journalUnit) { u.Proven = nil }},
		{"stratum-trials-mismatch", func(u *journalUnit) { u.Proven[1].N++ }},
		{"stratum-proven-exceeds-total", func(u *journalUnit) { u.Proven[0].P = u.Proven[0].T + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var u journalUnit
			if err := json.Unmarshal(lines[2], &u); err != nil {
				t.Fatal(err)
			}
			if u.Ck != 1 {
				t.Fatalf("fixture line 2 is checkpoint %d, want 1", u.Ck)
			}
			tc.damage(&u)
			bad, err := json.Marshal(u)
			if err != nil {
				t.Fatal(err)
			}
			journal := bytes.Join([][]byte{lines[0], lines[1], bad, lines[3]}, []byte("\n"))
			path := filepath.Join(t.TempDir(), "campaign.jsonl")
			if err := os.WriteFile(path, append(journal, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}

			prior, err := readJournal(path, hdr, cfg.Checkpoints, 8)
			if err != nil {
				t.Fatalf("readJournal: %v", err)
			}
			if !prior.completeCk(0) || prior.completeCk(1) || prior.completeCk(2) {
				t.Fatalf("replay covers checkpoints [%v %v %v], want [true false false]: replay must stop at the damaged record",
					prior.completeCk(0), prior.completeCk(1), prior.completeCk(2))
			}

			rcfg := cfg
			rcfg.JournalPath = path
			resumed, err := Resume(context.Background(), rcfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			gotJSON, gotCSV := exportBytes(t, resumed)
			if !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotCSV, wantCSV) {
				t.Error("resumed exports differ from a fresh run")
			}
		})
	}
}

// FuzzReadJournal: whatever the journal bytes, readJournal returns an
// error or a prior the engine can aggregate without crashing or
// mis-weighting: every complete checkpoint has a non-negative validInsns
// and only in-range outcomes and failure modes, and every proven-strata
// list has one stratum per population sampling that population's trials.
func FuzzReadJournal(f *testing.F) {
	cfg, hdr := journalTestHeader(f)
	names, err := filepath.Glob(filepath.Join("testdata", "*.jsonl"))
	if err != nil || len(names) == 0 {
		f.Fatalf("no journal fixtures: %v", err)
	}
	for _, name := range names {
		lines := fixtureLines(f, filepath.Base(name))
		whole := append(bytes.Join(lines, []byte("\n")), '\n')
		f.Add(whole)
		// Torn tail: the writer died mid-record.
		f.Add(append(append([]byte(nil), whole...), lines[len(lines)-1][:len(lines[len(lines)-1])/2]...))
		// Duplicated records: a resumed run re-journaled what the tail lost.
		f.Add(append(append([]byte(nil), whole...), bytes.Join(lines[1:], []byte("\n"))...))
		// Header drift: the journal of another campaign.
		f.Add(bytes.Replace(whole, []byte(`"seed":23`), []byte(`"seed":24`), 1))
	}

	pops := cfg.Populations
	perCk := 0
	for _, p := range pops {
		perCk += p.Trials
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "campaign.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		prior, err := readJournal(path, hdr, cfg.Checkpoints, perCk)
		if err != nil {
			return
		}
		for ck := 0; ck < cfg.Checkpoints; ck++ {
			if prior.completeCk(ck) {
				if prior.valid[ck] < 0 {
					t.Errorf("checkpoint %d complete with validInsns %d", ck, prior.valid[ck])
				}
				for i, tr := range prior.trials[ck] {
					if tr.Outcome < OutMatch || tr.Outcome >= NumOutcomes || tr.Mode >= NumFailureModes {
						t.Errorf("checkpoint %d trial %d: outcome %d mode %d out of range", ck, i, tr.Outcome, tr.Mode)
					}
				}
			}
			if ps := prior.proven[ck]; ps != nil {
				if len(ps) != len(pops) {
					t.Fatalf("checkpoint %d: %d proven strata for %d populations", ck, len(ps), len(pops))
				}
				for i, s := range ps {
					if s.Trials != pops[i].Trials {
						t.Errorf("checkpoint %d stratum %d samples %d trials, population has %d", ck, i, s.Trials, pops[i].Trials)
					}
				}
			}
		}
	})
}
