package core

import (
	"errors"
	"testing"
	"time"
)

// TestConfigErrorTyped: every Validate rejection is a *ConfigError naming
// the offending field, so front ends can match with errors.As instead of
// string-scraping, and Run surfaces the same typed error.
func TestConfigErrorTyped(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"no-workload", func(c *Config) { c.Workload = nil }, "Workload"},
		{"negative-checkpoints", func(c *Config) { c.Checkpoints = -1 }, "Checkpoints"},
		{"negative-horizon", func(c *Config) { c.Horizon = -5 }, "Horizon"},
		{"negative-warmup", func(c *Config) { c.WarmupCycles = -1 }, "WarmupCycles"},
		{"negative-workers", func(c *Config) { c.Workers = -2 }, "Workers"},
		{"negative-timeout", func(c *Config) { c.TrialTimeout = -time.Second }, "TrialTimeout"},
		{"bad-earlystop", func(c *Config) { c.EarlyStop = EarlyStopMode(99) }, "EarlyStop"},
		{"negative-crosscheck", func(c *Config) { c.CrossCheck = -1 }, "CrossCheck"},
		{"unnamed-population", func(c *Config) { c.Populations[0].Name = "" }, "Populations"},
		{"duplicate-population", func(c *Config) { c.Populations[1].Name = c.Populations[0].Name }, "Populations"},
		{"negative-trials", func(c *Config) { c.Populations[0].Trials = -1 }, "Populations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := stealTestConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
			if ce.Error() == "" {
				t.Error("empty error message")
			}
			// Run must refuse the same config with the same typed error,
			// before any simulation work.
			if _, rerr := Run(cfg); !errors.As(rerr, &ce) || ce.Field != tc.field {
				t.Errorf("Run = %v, want the %s ConfigError", rerr, tc.field)
			}
		})
	}
}

// TestValidateAcceptsDefaults: the zero values that mean "use the default"
// must pass validation untouched.
func TestValidateAcceptsDefaults(t *testing.T) {
	cfg := stealTestConfig()
	cfg.Checkpoints = 0
	cfg.Horizon = 0
	cfg.Workers = 0
	cfg.TrialTimeout = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected a defaults-only config: %v", err)
	}
}
