package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pipefault/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden export files")

// goldenConfig is the reference campaign whose exports are pinned in
// testdata/. Everything that affects results is fixed — workload, seed,
// checkpoint count — so the exported bytes are a stable artifact of the
// simulator; callers vary only scheduling and early-stop knobs.
func goldenConfig() Config {
	return Config{
		Workload:    workload.Tiny,
		Checkpoints: 2,
		Horizon:     800,
		Populations: []Population{
			{Name: "l+r", Trials: 4},
			{Name: "l", LatchOnly: true, Trials: 3},
		},
		Seed:  11,
		Prove: ProveOff, // goldens pin the full-population draw sequence
	}
}

// goldenCampaign runs the reference campaign at the given worker count.
func goldenCampaign(t *testing.T, workers int) *Result {
	t.Helper()
	cfg := goldenConfig()
	cfg.Workers = workers
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExportGolden asserts the export encoders are byte-deterministic:
// two independent campaign runs (one serial, one parallel) must serialize
// to identical bytes, and those bytes must match the checked-in golden
// files. Regenerate with `go test ./internal/core -run TestExportGolden -update`.
func TestExportGolden(t *testing.T) {
	serial := goldenCampaign(t, 1)
	parallel := goldenCampaign(t, 4)

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
			var a, b bytes.Buffer
			if err := enc.write(serial, &a); err != nil {
				t.Fatal(err)
			}
			if err := enc.write(parallel, &b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("Workers:1 and Workers:4 exports differ:\n--- serial ---\n%s\n--- parallel ---\n%s", a.Bytes(), b.Bytes())
			}
			path := filepath.Join("testdata", enc.golden)
			if *updateGolden {
				if err := os.WriteFile(path, a.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(a.Bytes(), want) {
				t.Errorf("%s export deviates from golden file; run with -update if the change is intended\n--- got ---\n%s\n--- want ---\n%s", enc.name, a.Bytes(), want)
			}
		})
	}
}

// TestExportRepeatedEncode pins that encoding the same in-memory Result
// twice yields identical bytes — i.e. the encoders themselves are pure.
func TestExportRepeatedEncode(t *testing.T) {
	res := goldenCampaign(t, 2)
	var a, b bytes.Buffer
	if err := res.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteJSON is not a pure function of the Result")
	}
	a.Reset()
	b.Reset()
	if err := res.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteCSV is not a pure function of the Result")
	}
}
