package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/obs"
)

// ResolverStudyConfig sizes the §4.2 resolver measurement.
type ResolverStudyConfig struct {
	// ScaleDen divides the paper's validator counts (105.2 K open
	// IPv4, 6.8 K open IPv6, 1,236 closed IPv4, 689 closed IPv6) and
	// its probed-population totals (1.9 M open, 2.5 K closed).
	// Default 200; 1 is the paper's full scale.
	ScaleDen int
	Seed     uint64
	// Workers bounds concurrent probes per shard (default 32).
	Workers int
	// Shards splits the fleet into independently executable slices;
	// peak memory is O(one shard's resolvers), not O(fleet). Default 1.
	Shards int
	// Obs (nil ok) receives the study's metrics.
	Obs *obs.Registry
	// Trace (nil ok) receives per-shard phase spans.
	Trace *obs.Tracer
}

// Validate rejects nonsensical configurations with a *ConfigError.
// The zero config is valid (defaults fill it in); what Validate
// refuses are fields no defaulting can repair.
func (c ResolverStudyConfig) Validate() error {
	if c.ScaleDen < 0 {
		return &ConfigError{Config: "ResolverStudyConfig", Field: "ScaleDen",
			Reason: fmt.Sprintf("negative scale denominator %d", c.ScaleDen)}
	}
	if c.Workers < 0 {
		return &ConfigError{Config: "ResolverStudyConfig", Field: "Workers",
			Reason: fmt.Sprintf("negative worker count %d", c.Workers)}
	}
	if c.Shards < 0 {
		return &ConfigError{Config: "ResolverStudyConfig", Field: "Shards",
			Reason: fmt.Sprintf("negative shard count %d", c.Shards)}
	}
	return nil
}

// ResolverStudySpec is the serializable, fully resolved subset of
// ResolverStudyConfig: everything a worker process needs to execute a
// resolver shard, nothing that cannot cross a socket.
type ResolverStudySpec struct {
	ScaleDen int    `json:"scale_den"`
	Seed     uint64 `json:"seed"`
	Workers  int    `json:"workers"`
	Shards   int    `json:"shards"`
}

// Resolve validates c and returns its fully defaulted serializable
// spec — the single entry point both the in-process and distributed
// study engines go through.
func (c ResolverStudyConfig) Resolve() (ResolverStudySpec, error) {
	if err := c.Validate(); err != nil {
		return ResolverStudySpec{}, err
	}
	s := ResolverStudySpec{
		ScaleDen: c.ScaleDen,
		Seed:     c.Seed,
		Workers:  c.Workers,
		Shards:   c.Shards,
	}
	if s.ScaleDen == 0 {
		s.ScaleDen = 200
	}
	if s.Workers == 0 {
		s.Workers = 32
	}
	if s.Shards == 0 {
		s.Shards = 1
	}
	return s, nil
}

// Hash returns the hex config hash identifying which resolver study a
// shard job, checkpoint, or state directory belongs to. Only result-
// and plan-affecting fields participate: ScaleDen, Seed, and Shards
// pin the fleet and its decomposition, while Workers is a runtime
// throttle a resumed run may legitimately change. The preimage is
// disjoint from SurveySpec's, so survey and resolver-study state can
// never be confused for one another.
func (s ResolverStudySpec) Hash() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("repro-resolverstudy-v%d:sd=%d:s=%d:sh=%d",
		specHashVersion, s.ScaleDen, s.Seed, s.Shards)))
	return hex.EncodeToString(h[:16])
}

// String names the study and its size.
func (s ResolverStudySpec) String() string {
	return fmt.Sprintf("§4.2 resolver study (fleet at 1:%d scale, %d shards, seed %d)", s.ScaleDen, s.Shards, s.Seed)
}
