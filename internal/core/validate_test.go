package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"pipefault/internal/uarch"
	"pipefault/internal/workload"
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
		{"horizon-overflows-trace", func(c *Config) { c.Horizon = math.MaxInt }, "Horizon"},
		{"negative-warmup", func(c *Config) { c.WarmupCycles = -1 }, "WarmupCycles"},
		{"negative-workers", func(c *Config) { c.Workers = -2 }, "Workers"},
		{"negative-timeout", func(c *Config) { c.TrialTimeout = -time.Second }, "TrialTimeout"},
		{"bad-earlystop", func(c *Config) { c.EarlyStop = EarlyStopMode(99) }, "EarlyStop"},
		{"bad-prove", func(c *Config) { c.Prove = ProveMode(99) }, "Prove"},
		{"bad-recovery", func(c *Config) { c.Recovery = uarch.RecoveryStyle(99) }, "Recovery"},
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

// FuzzConfigValidate: whatever the field values and flag strings, the flag
// parsers return a value or an error and Validate returns nil or a
// *ConfigError — none of them panics. A parsed flag round-trips through
// String, a parsed fault model passes Validate, and a config Validate
// accepts has a fault model and prover mode the engine can run.
func FuzzConfigValidate(f *testing.F) {
	f.Add(true, 3, 600, 5000, 4, int64(0), 0, uint8(0), uint8(0), "transient", 0, uint8(0), 2, "l+r", 5, "l", 3, true, "on", "on")
	f.Add(true, 0, 0, 0, 0, int64(time.Second), 2, uint8(1), uint8(1), "intermittent", 80, uint8(1), 0, "l+r", 25, "l+r", 1, false, "off", "off")
	f.Add(true, -1, -5, -1, -2, int64(-1), -1, uint8(9), uint8(7), "stuck0", 0, uint8(2), -1, "", -1, "x", 0, true, "", "maybe")
	f.Add(false, 1, math.MaxInt, 0, 1, int64(0), 0, uint8(0), uint8(0), "mbu2", -3, uint8(255), math.MinInt, "a", 1, "b", 1, false, "ON", "Off")
	f.Fuzz(func(t *testing.T, hasWorkload bool, checkpoints, horizon, warmup, workers int, timeout int64, crossCheck int,
		earlyStop, prove uint8, model string, duration int, polarity uint8, span int,
		pop1 string, trials1 int, pop2 string, trials2 int, latch bool, esFlag, proveFlag string) {
		if es, err := ParseEarlyStopMode(esFlag); err == nil && es.String() != esFlag {
			t.Errorf("ParseEarlyStopMode(%q) = %v", esFlag, es)
		}
		if pm, err := ParseProveMode(proveFlag); err == nil && pm.String() != proveFlag {
			t.Errorf("ParseProveMode(%q) = %v", proveFlag, pm)
		}
		fm, err := ParseFaultModel(model, duration)
		if err == nil {
			if fm == nil {
				t.Fatalf("ParseFaultModel(%q, %d) = nil, nil", model, duration)
			}
			if verr := validateModel(fm); verr != nil {
				t.Errorf("ParseFaultModel(%q, %d) = %v, which Validate rejects: %v", model, duration, fm, verr)
			}
		} else if fm == nil {
			// An unknown flag: fuzz the model's fields directly instead.
			switch len(model) % 3 {
			case 1:
				fm = StuckAt{Polarity: polarity, Duration: duration, Random: latch, Permanent: polarity%2 == 0}
			case 2:
				fm = MultiBit{Span: span}
			}
		}

		cfg := Config{
			Checkpoints:  checkpoints,
			Horizon:      horizon,
			WarmupCycles: warmup,
			Workers:      workers,
			TrialTimeout: time.Duration(timeout),
			CrossCheck:   crossCheck,
			EarlyStop:    EarlyStopMode(earlyStop),
			Prove:        ProveMode(prove),
			Model:        fm,
			Populations: []Population{
				{Name: pop1, Trials: trials1},
				{Name: pop2, Trials: trials2, LatchOnly: latch},
			},
		}
		if hasWorkload {
			cfg.Workload = workload.Tiny
		}
		err = cfg.Validate()
		if err == nil {
			if _, ok := resolveModel(cfg.Model).(TransientFlip); !ok && cfg.Prove != ProveOff {
				t.Errorf("Validate kept Prove %v for model %v", cfg.Prove, cfg.Model)
			}
			return
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("Validate = %v (%T), want *ConfigError", err, err)
		}
		if ce.Field == "" || ce.Error() == "" {
			t.Errorf("ConfigError %+v names no field or renders empty", ce)
		}
	})
}
