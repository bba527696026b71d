package main

import "testing"

// TestRunFlagValidation: malformed command lines exit 2 with a diagnostic,
// before any simulation work. The happy-path cases use the campaign-free
// "modes" command so the whole flag pipeline (parse, model resolution,
// Config.Validate, front-end range checks) runs in microseconds.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no command", []string{}, 2},
		{"bad flag", []string{"-definitely-not-a-flag", "modes"}, 2},
		{"unknown command", []string{"modes", "nope"}, 1},
		{"unknown model", []string{"-fault-model", "bogus", "modes"}, 2},
		{"empty model", []string{"-fault-model", "", "modes"}, 2},
		{"zero duration", []string{"-fault-model", "stuck1", "-fault-duration", "0", "modes"}, 2},
		{"negative duration", []string{"-fault-model", "intermittent", "-fault-duration", "-7", "modes"}, 2},
		{"zero duration transient", []string{"-fault-duration", "0", "modes"}, 2},
		{"negative crosscheck", []string{"-crosscheck", "-1", "modes"}, 2},
		{"removed prove oracle flag", []string{"-prove-crosscheck", "3", "modes"}, 2},
		{"removed model oracle flag", []string{"-model-crosscheck", "3", "modes"}, 2},
		{"resume without journal", []string{"-resume", "modes"}, 2},
		{"bad sched", []string{"-sched", "steal", "modes"}, 2},
		{"bad earlystop", []string{"-earlystop", "taint", "modes"}, 2},
		{"bad bench", []string{"-bench", "nope", "modes"}, 2},
		{"default ok", []string{"modes"}, 0},
		{"transient ok", []string{"-fault-model", "transient", "modes"}, 0},
		{"stuck0 ok", []string{"-fault-model", "stuck0", "-fault-duration", "25", "modes"}, 0},
		{"intermittent ok", []string{"-fault-model", "intermittent", "-fault-duration", "25", "modes"}, 0},
		{"permanent ok", []string{"-fault-model", "permanent", "modes"}, 0},
		{"mbu2 ok", []string{"-fault-model", "mbu2", "-crosscheck", "2", "modes"}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := run(c.args); got != c.want {
				t.Errorf("run(%q) = %d, want %d", c.args, got, c.want)
			}
		})
	}
}

// TestRunNonTransientCampaign: one minimal end-to-end stuck-at campaign
// through the real CLI path, with the runtime soundness oracle armed.
func TestRunNonTransientCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	args := []string{
		"-bench", "gzip", "-checkpoints", "1", "-trials", "3", "-ltrials", "2",
		"-horizon", "600", "-fault-model", "stuck1", "-fault-duration", "30",
		"-crosscheck", "1", "fig3",
	}
	if got := run(args); got != 0 {
		t.Errorf("run(%q) = %d, want 0", args, got)
	}
}
