package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// SigningMode selects when a survey shard's zones are signed.
type SigningMode int

const (
	// SigningDefault resolves to SigningLazy: sharded runs want the
	// O(zones touched) memory envelope.
	SigningDefault SigningMode = iota
	// SigningLazy signs each deployed zone on the first query that
	// reaches it (per-zone singleflight in the authoritative server).
	// The report is byte-identical to an eager run — signing is
	// deterministic per zone, not per order of arrival.
	SigningLazy
	// SigningEager signs every zone at deploy time — the authd/AXFR
	// serving shape, and the reference behavior the eager-vs-lazy
	// golden test compares against.
	SigningEager
)

// ConfigError is the typed rejection Validate returns for a
// nonsensical config field.
type ConfigError struct {
	// Config names the configuration type the field belongs to; empty
	// means SurveyConfig.
	Config string
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	cfg := e.Config
	if cfg == "" {
		cfg = "SurveyConfig"
	}
	return fmt.Sprintf("core: invalid %s.%s: %s", cfg, e.Field, e.Reason)
}

// Validate rejects nonsensical configurations with a *ConfigError.
// The zero config is valid (withDefaults fills it in); what Validate
// refuses are fields that no defaulting can repair.
func (c SurveyConfig) Validate() error {
	if c.Registered < 0 {
		return &ConfigError{Field: "Registered", Reason: fmt.Sprintf("negative domain count %d", c.Registered)}
	}
	if c.Shards < 0 {
		return &ConfigError{Field: "Shards", Reason: fmt.Sprintf("negative shard count %d", c.Shards)}
	}
	if c.Registered == 0 && c.Shards != 0 {
		return &ConfigError{Field: "Shards", Reason: fmt.Sprintf(
			"%d shards over zero registered domains — a config that asks for explicit sharding must also size the universe", c.Shards)}
	}
	if c.Workers < 0 {
		return &ConfigError{Field: "Workers", Reason: fmt.Sprintf("negative worker count %d", c.Workers)}
	}
	if c.Signing < SigningDefault || c.Signing > SigningEager {
		return &ConfigError{Field: "Signing", Reason: fmt.Sprintf("unknown signing mode %d", int(c.Signing))}
	}
	return nil
}

// SurveySpec is the serializable subset of SurveyConfig: everything a
// worker process needs to execute a shard, nothing that cannot cross a
// socket (registries, tracers). All fields are fully resolved — a spec
// never carries zero-means-default values, so two processes holding
// the same spec make identical choices.
type SurveySpec struct {
	Registered int         `json:"registered"`
	Seed       uint64      `json:"seed"`
	Workers    int         `json:"workers"`
	Shards     int         `json:"shards"`
	Signing    SigningMode `json:"signing"`
}

// Resolve validates c and returns its fully defaulted serializable
// spec — the single entry point both the in-process and distributed
// engines go through.
func (c SurveyConfig) Resolve() (SurveySpec, error) {
	if err := c.Validate(); err != nil {
		return SurveySpec{}, err
	}
	d := c.withDefaults()
	return SurveySpec{
		Registered: d.Registered,
		Seed:       d.Seed,
		Workers:    d.Workers,
		Shards:     d.Shards,
		Signing:    d.Signing,
	}, nil
}

// specHashVersion versions the hash preimage: bump it whenever the
// shard plan or outcome format changes incompatibly, so stale state
// directories are refused rather than misinterpreted.
const specHashVersion = 2

// Hash returns the hex config hash identifying which survey a shard
// job, checkpoint, or state directory belongs to. Only result- and
// plan-affecting fields participate: Registered, Seed, Shards, and
// Signing pin the shard decomposition and its outcomes, while Workers
// is a runtime throttle a resumed run may legitimately change.
func (s SurveySpec) Hash() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("repro-survey-v%d:r=%d:s=%d:sh=%d:sg=%d",
		specHashVersion, s.Registered, s.Seed, s.Shards, int(s.Signing))))
	return hex.EncodeToString(h[:16])
}

// String names the survey and its size.
func (s SurveySpec) String() string {
	return fmt.Sprintf("§4.1 domain survey (%d domains, %d shards, seed %d)", s.Registered, s.Shards, s.Seed)
}

// withDefaults returns a copy of c with zero fields resolved to their
// defaults. RunSurvey works on the copy — the caller's config is never
// mutated.
func (c SurveyConfig) withDefaults() SurveyConfig {
	out := c
	if out.Registered == 0 {
		out.Registered = 30200
	}
	if out.Workers == 0 {
		out.Workers = 64
	}
	if out.Shards == 0 {
		out.Shards = 1
	}
	if out.Signing == SigningDefault {
		out.Signing = SigningLazy
	}
	return out
}
