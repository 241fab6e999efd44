package core

import (
	"context"
	"errors"
	"testing"
)

func TestSurveyConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		cfg   SurveyConfig
		field string // empty = valid
	}{
		{"zero config", SurveyConfig{}, ""},
		{"typical", SurveyConfig{Registered: 600, Shards: 3}, ""},
		{"explicit modes", SurveyConfig{Registered: 10, Signing: SigningEager}, ""},
		{"negative registered", SurveyConfig{Registered: -1}, "Registered"},
		{"negative shards", SurveyConfig{Registered: 10, Shards: -2}, "Shards"},
		{"shards without registered", SurveyConfig{Shards: 4}, "Shards"},
		{"negative workers", SurveyConfig{Registered: 10, Workers: -1}, "Workers"},
		{"unknown signing mode", SurveyConfig{Registered: 10, Signing: SigningMode(99)}, "Signing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate() = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
}

// TestRunSurveyRejectsInvalidConfig pins that validation happens before
// any work: RunSurvey surfaces the typed error as-is.
func TestRunSurveyRejectsInvalidConfig(t *testing.T) {
	_, err := RunSurvey(context.Background(), SurveyConfig{Registered: -3})
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("RunSurvey error = %v, want *ConfigError", err)
	}
}

func TestSurveyConfigWithDefaults(t *testing.T) {
	got := SurveyConfig{}.withDefaults()
	if got.Registered != 30200 || got.Workers != 64 || got.Shards != 1 || got.Signing != SigningLazy {
		t.Fatalf("withDefaults() = %+v", got)
	}
	// Explicit values survive; the input is not mutated.
	in := SurveyConfig{Registered: 7, Workers: 2, Shards: 3, Signing: SigningEager}
	if got := in.withDefaults(); got != in {
		t.Fatalf("withDefaults() rewrote explicit fields: %+v", got)
	}
}
