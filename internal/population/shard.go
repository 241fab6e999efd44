package population

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/dnswire"
	"repro/internal/fanout"
	"repro/internal/mix"
)

// This file implements the streaming side of universe generation,
// split into a plan/execute pair so shard generation can cross process
// boundaries:
//
//   - ShardPlanner precomputes the shared tables (operators, TLD
//     registry, rare-specimen plan) and turns a shard count into pure,
//     serializable ShardPlan descriptions.
//   - GenerateShard materializes one shard from its plan alone — no
//     cursor state, no ordering requirement — so any process holding
//     (Config, ShardPlan) produces byte-identical domains.
//
// Every domain is generated from its own index-derived PCG stream, and
// the rare-specimen tail is applied from a precomputed plan keyed by
// each domain's NSEC3 ordinal. The plan carries that ordinal across
// shard boundaries (ShardPlan.NSEC3Start), so the concatenation of any
// shard decomposition is byte-identical to a single-shard run — the
// property core.RunSurvey's sharded pipeline relies on.

// Shard is one contiguous slice of the universe.
type Shard struct {
	// Index is the shard ordinal, 0-based.
	Index int
	// Offset is the global index of Universe.Domains[0].
	Offset int
	// Universe holds this shard's domains plus the (shared) operator
	// table and TLD registry, ready for Deploy.
	Universe *Universe
}

// ShardPlan is the pure, serializable description of one shard: any
// process holding the survey Config can execute shard Index from the
// plan alone, in any order relative to its siblings.
type ShardPlan struct {
	// Index is the shard ordinal, 0-based.
	Index int `json:"index"`
	// Offset is the global index of the shard's first domain.
	Offset int `json:"offset"`
	// Size is the number of domains in the shard.
	Size int `json:"size"`
	// NSEC3Start is the shard's starting NSEC3 ordinal: how many
	// NSEC3-enabled domains precede Offset in the stream. The
	// rare-specimen plan is keyed by this ordinal, so it is the one
	// piece of cross-shard state a standalone executor needs.
	NSEC3Start int `json:"nsec3_start"`
}

// ShardIndex returns the shard ordinal (core.Sharded).
func (p ShardPlan) ShardIndex() int { return p.Index }

// ShardPlanner holds the shared generation tables and plans shards.
// Plans and shards are pure functions of (Config, shard count); the
// planner itself is read-only after construction and safe to reuse
// across GenerateShard calls.
type ShardPlanner struct {
	cfg  Config
	plan []RareSpecimen // per-NSEC3-ordinal overrides

	ops       []Operator
	operators map[string]Operator
	opCum     []float64
	tldCum    []float64
	tlds      []TLDSpec
}

// NewShardPlanner prepares the shared tables for cfg.
func NewShardPlanner(cfg Config) (*ShardPlanner, error) {
	if cfg.Registered <= 0 {
		return nil, fmt.Errorf("population: Registered must be positive")
	}
	ops := Operators()
	operators := make(map[string]Operator, len(ops))
	for _, op := range ops {
		operators[op.Name] = op
	}
	return &ShardPlanner{
		cfg:       cfg,
		plan:      specimenPlan(cfg.Registered),
		ops:       ops,
		operators: operators,
		opCum:     operatorCumulative(ops),
		tldCum:    tldCumulative(),
		tlds:      GenerateTLDs(cfg.Seed),
	}, nil
}

// TLDs returns the shared TLD registry (read-only).
func (p *ShardPlanner) TLDs() []TLDSpec { return p.tlds }

// Operators returns the shared operator table (read-only).
func (p *ShardPlanner) Operators() map[string]Operator { return p.operators }

// Plan splits the universe into the given number of shards
// (fanout.Split) and returns one ShardPlan per shard. A shard count
// above cfg.Registered is clamped; counts ≤ 0 mean one shard. The
// single pass over the stream counts NSEC3 draws so every plan carries
// its starting ordinal.
func (p *ShardPlanner) Plan(shards int) []ShardPlan {
	sizes := fanout.Split(p.cfg.Registered, shards)
	plans := make([]ShardPlan, len(sizes))
	offset, nsec3 := 0, 0
	for s, size := range sizes {
		plans[s] = ShardPlan{Index: s, Offset: offset, Size: size, NSEC3Start: nsec3}
		for i := offset; i < offset+size; i++ {
			if p.nsec3At(i) {
				nsec3++
			}
		}
		offset += size
	}
	return plans
}

// GenerateShard materializes one shard from its plan. The result
// depends only on (Config, plan) — never on which process runs it or
// which shards were generated before.
func (p *ShardPlanner) GenerateShard(plan ShardPlan) (*Shard, error) {
	if plan.Offset < 0 || plan.Size < 0 || plan.Offset+plan.Size > p.cfg.Registered {
		return nil, fmt.Errorf("population: shard plan %d spans [%d,%d) outside the %d-domain universe",
			plan.Index, plan.Offset, plan.Offset+plan.Size, p.cfg.Registered)
	}
	shard := &Shard{
		Index:  plan.Index,
		Offset: plan.Offset,
		Universe: &Universe{
			Config:    p.cfg,
			Domains:   make([]DomainSpec, 0, plan.Size),
			Operators: p.operators,
			TLDs:      p.tlds,
		},
	}
	nsec3Seen := plan.NSEC3Start
	for i := plan.Offset; i < plan.Offset+plan.Size; i++ {
		spec, err := p.domainAt(i)
		if err != nil {
			return nil, err
		}
		if spec.NSEC3 {
			if nsec3Seen < len(p.plan) {
				s := p.plan[nsec3Seen]
				spec.Iterations = s.Iterations
				spec.SaltLen = s.SaltLen
				spec.Operator = s.Operator
			}
			nsec3Seen++
		}
		shard.Universe.Domains = append(shard.Universe.Domains, spec)
	}
	return shard, nil
}

// domainAt generates domain i from its own index-derived stream, so
// the result depends only on (Seed, i) — never on shard boundaries.
func (p *ShardPlanner) domainAt(i int) (DomainSpec, error) {
	rng := domainRNG(p.cfg.Seed, i)
	spec := DomainSpec{TLD: pickTLD(p.tldCum, rng.Float64())}
	name, err := dnswire.FromLabels(fmt.Sprintf("d%07d", i), spec.TLD)
	if err != nil {
		return DomainSpec{}, err
	}
	spec.Name = name
	op := pickOperator(p.ops, p.opCum, rng.Float64())
	spec.Operator = op.Name
	spec.DNSSEC = rng.Float64() < dnssecRate
	if spec.DNSSEC {
		spec.NSEC3 = rng.Float64() < nsec3GivenDNSSEC
	}
	if spec.NSEC3 {
		prof := pickProfile(op.Profiles, rng.Float64())
		spec.Iterations = prof.Iterations
		spec.SaltLen = prof.SaltLen
		spec.OptOut = rng.Float64() < optOutRate
	}
	return spec, nil
}

// nsec3At replays just enough of domain i's private stream to answer
// "is this domain NSEC3-enabled?" — the draws must mirror domainAt's
// order exactly (TLD, operator, DNSSEC, then NSEC3 only when DNSSEC
// hit), because each draw advances the same PCG stream.
func (p *ShardPlanner) nsec3At(i int) bool {
	rng := domainRNG(p.cfg.Seed, i)
	rng.Float64() // TLD pick
	rng.Float64() // operator pick
	if rng.Float64() >= dnssecRate {
		return false
	}
	return rng.Float64() < nsec3GivenDNSSEC
}

// ShardCursor streams a universe shard by shard — the in-process
// convenience wrapper over ShardPlanner for callers that consume the
// decomposition in order.
type ShardCursor struct {
	p     *ShardPlanner
	plans []ShardPlan
	next  int
}

// NewShardCursor prepares a cursor that generates cfg.Registered
// domains across the given number of shards. A shard count above
// cfg.Registered is clamped.
func NewShardCursor(cfg Config, shards int) (*ShardCursor, error) {
	p, err := NewShardPlanner(cfg)
	if err != nil {
		return nil, err
	}
	return &ShardCursor{p: p, plans: p.Plan(shards)}, nil
}

// Shards returns the shard count.
func (c *ShardCursor) Shards() int { return len(c.plans) }

// TLDs returns the shared TLD registry (read-only).
func (c *ShardCursor) TLDs() []TLDSpec { return c.p.TLDs() }

// Operators returns the shared operator table (read-only).
func (c *ShardCursor) Operators() map[string]Operator { return c.p.Operators() }

// Next generates and returns the next shard, or (nil, nil) when every
// shard has been yielded.
func (c *ShardCursor) Next() (*Shard, error) {
	if c.next >= len(c.plans) {
		return nil, nil
	}
	shard, err := c.p.GenerateShard(c.plans[c.next])
	if err != nil {
		return nil, err
	}
	c.next++
	return shard, nil
}

// domainRNG seeds domain i's private PCG stream.
func domainRNG(seed uint64, i int) *rand.Rand {
	s := mix.SplitMix64(seed ^ mix.SplitMix64(uint64(i)+0x6C62272E07BB0142))
	return rand.New(rand.NewPCG(s, mix.SplitMix64(s)))
}

// expectedNSEC3 is the calibration-expected NSEC3-enabled count at a
// scale — the streaming stand-in for the materialized count (which is
// unknowable until the whole stream has been generated).
func expectedNSEC3(registered int) int {
	return int(float64(registered)*dnssecRate*nsec3GivenDNSSEC + 0.5)
}

// specimenPlan expands RareSpecimens into one override per affected
// NSEC3 ordinal: the j-th NSEC3-enabled domain of the stream receives
// plan[j]. Counts scale with the expected NSEC3 population but every
// specimen row keeps at least one slot, so the observed maxima (500
// iterations, 160-byte salt) survive any scale.
func specimenPlan(registered int) []RareSpecimen {
	scale := float64(expectedNSEC3(registered)) / float64(FullNSEC3)
	var plan []RareSpecimen
	for _, spec := range RareSpecimens() {
		n := int(float64(spec.Count)*scale + 0.5)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			plan = append(plan, spec)
		}
	}
	return plan
}
