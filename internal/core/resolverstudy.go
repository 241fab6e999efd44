package core

import (
	"context"
	"fmt"
	"net/netip"

	"repro/internal/analysis"
	"repro/internal/atlas"
	"repro/internal/compliance"
	"repro/internal/dnssec"
	"repro/internal/fanout"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/testbed"
)

// This file is the §4.2 resolver study's instantiation of the study
// engine (study.go), the Figure 3 counterpart of the survey
// (engine.go): ResolverStudySpec supplies the shard plans over an
// index-pure resolver fleet, the deploy→probe→classify body that
// executes one plan, and the fold that merges one ResolverShardOutcome
// into the ResolverStudyReport. Because respop assignments are
// index-pure, peak memory is O(one shard's resolvers): the paper's full
// 105.2 K + 6.8 K + 1.2 K + 0.7 K validator fleet (ScaleDen=1) runs in
// the same footprint as the 1:200 default.

// installScanResolver registers a Cloudflare-like recursive resolver
// on a hierarchy's network (the measurement resolver of §4.1) and
// returns its address. reg (nil ok) receives the resolver's metrics;
// memo (nil ok) answers its signature checks.
func installScanResolver(h *testbed.Hierarchy, reg *obs.Registry, memo *dnssec.VerifyMemo) netip.AddrPort {
	addr := netsim.Addr4(1, 1, 1, 1)
	res := resolver.New(resolver.Config{
		Roots:       h.Roots,
		TrustAnchor: h.TrustAnchor,
		Exchanger:   h.Net,
		Policy:      respop.Cloudflare.Policy,
		Now:         func() uint32 { return DefaultNow },
		Obs:         reg,
		VerifyMemo:  memo,
	})
	h.Net.Register(addr, res)
	return addr
}

// ResolverShardJob is one unit of resolver-study work.
type ResolverShardJob = Job[ResolverStudySpec, respop.ShardPlan]

// ResolverShardRunner executes ResolverShardJobs; its sign cache
// deduplicates testbed signing across shard worlds.
type ResolverShardRunner = Runner[ResolverStudySpec, respop.ShardPlan, *ResolverShardOutcome, *ResolverStudyReport]

// ResolverReportBuilder folds ResolverShardOutcomes into the final
// ResolverStudyReport.
type ResolverReportBuilder = Builder[*ResolverShardOutcome, *ResolverStudyReport]

// PlanResolverJobs, NewResolverShardRunner, and NewResolverReportBuilder
// are the resolver-study spellings of Plan, NewRunner, and NewBuilder.
func PlanResolverJobs(spec ResolverStudySpec) ([]ResolverShardJob, error) { return Plan(spec) }

func NewResolverShardRunner(reg *obs.Registry, trace *obs.Tracer, cache *testbed.SignCache) *ResolverShardRunner {
	return NewRunner[ResolverStudySpec](reg, trace, cache)
}

func NewResolverReportBuilder(spec ResolverStudySpec) *ResolverReportBuilder {
	return NewBuilder(spec)
}

// deployConfig is the respop configuration the spec pins. Every layer
// derives it through here, so planner and jobs can never disagree.
func (s ResolverStudySpec) deployConfig() respop.DeployConfig {
	return respop.DeployConfig{
		Counts: respop.DefaultCounts(s.ScaleDen),
		Seed:   s.Seed + 11,
		Now:    func() uint32 { return DefaultNow },
	}
}

func (s ResolverStudySpec) shardPlans() ([]respop.ShardPlan, error) {
	p, err := respop.NewPlanner(s.deployConfig())
	if err != nil {
		return nil, err
	}
	return p.Plan(s.Shards), nil
}

// ResolverShardOutcome is the serializable result of executing one
// ResolverShardJob. All fields round-trip through JSON unchanged, so a
// distributed run's report is byte-identical to an in-process one.
type ResolverShardOutcome struct {
	// Index is the shard ordinal the outcome belongs to.
	Index int `json:"index"`
	// Series holds the shard-local Figure 3 tallies per quadrant
	// (raw counts — they merge exactly).
	Series map[respop.Quadrant]*analysis.RCodeSeries `json:"series"`
	// PerQuadrant aggregates the Items 6–12 statistics per quadrant.
	PerQuadrant map[respop.Quadrant]*compliance.ResolverAggregate `json:"per_quadrant"`
	// Deployed counts resolvers per quadrant in this shard.
	Deployed map[respop.Quadrant]int `json:"deployed"`
	// ProbeFailures counts probes that yielded no transcript.
	ProbeFailures int `json:"probe_failures"`
}

// ShardIndex implements Sharded.
func (o *ResolverShardOutcome) ShardIndex() int { return o.Index }

// resolverExec is the resolver study's per-process shard executor: the
// planner for one spec plus the obs counters (all no-op without a
// registry).
type resolverExec struct {
	env
	spec    ResolverStudySpec
	planner *respop.Planner

	mProbeFail *obs.Counter
	mProbed    map[respop.Quadrant]*obs.Counter
	mShards    *obs.Counter
	mSigned    *obs.Counter
	mReused    *obs.Counter
}

func (s ResolverStudySpec) newExecutor(e env) (executor[respop.ShardPlan, *ResolverShardOutcome], error) {
	planner, err := respop.NewPlanner(s.deployConfig())
	if err != nil {
		return nil, err
	}
	reg := e.reg
	return &resolverExec{
		env:        e,
		spec:       s,
		planner:    planner,
		mProbeFail: reg.Counter("resolverstudy_probe_failures_total", "resolver probes that yielded no transcript (cancelled or errored)"),
		mProbed: map[respop.Quadrant]*obs.Counter{
			respop.OpenIPv4:   reg.Counter("resolverstudy_probed_open_ipv4_total", "open IPv4 resolvers probed to a transcript"),
			respop.OpenIPv6:   reg.Counter("resolverstudy_probed_open_ipv6_total", "open IPv6 resolvers probed to a transcript"),
			respop.ClosedIPv4: reg.Counter("resolverstudy_probed_closed_ipv4_total", "closed IPv4 resolvers probed to a transcript via Atlas"),
			respop.ClosedIPv6: reg.Counter("resolverstudy_probed_closed_ipv6_total", "closed IPv6 resolvers probed to a transcript via Atlas"),
		},
		mShards: reg.Counter("resolverstudy_shards_completed_total", "resolver-study shards executed to completion"),
		mSigned: reg.Counter("resolverstudy_zones_signed_total", "testbed zones signed fresh across shard worlds"),
		mReused: reg.Counter("resolverstudy_zones_reused_total", "testbed zones served from the sign cache"),
	}, nil
}

// execute runs one shard plan end to end — build the testbed world on
// its own network, deploy the shard's slice of the fleet, probe it,
// classify.
func (run *resolverExec) execute(ctx context.Context, plan respop.ShardPlan) (*ResolverShardOutcome, error) {
	spec := run.spec

	deploySpan := run.trace.Start("deploy", plan.Index)
	// Each shard gets its own simulated network, so peak memory is one
	// shard's resolvers; the testbed zones are identical across shards
	// and signed once through the shared cache, under keys derived from
	// the study's seed, not the shard's.
	h, err := BuildTestbedWorld(spec.Seed+uint64(plan.Index),
		testbed.WithSeed(spec.Seed), testbed.WithLazySigning(), testbed.WithCache(run.cache))
	if err != nil {
		return nil, err
	}
	instances, err := respop.DeployShard(h, run.planner, plan, run.reg, run.memo)
	if err != nil {
		return nil, err
	}
	deploySpan.End()

	out := &ResolverShardOutcome{
		Index:       plan.Index,
		Series:      make(map[respop.Quadrant]*analysis.RCodeSeries),
		PerQuadrant: make(map[respop.Quadrant]*compliance.ResolverAggregate),
		Deployed:    make(map[respop.Quadrant]int),
	}

	probeSpan := run.trace.Start("probe", plan.Index)
	// One pass over the shard in fleet order. Open resolvers are
	// probed directly; closed ones are reachable only from their own
	// network, so they are measured through the Atlas platform
	// (EDE-less transcripts). Probe IDs and labels are fleet indexes,
	// unique across shards and processes.
	platform := &atlas.Platform{Exchanger: h.Net, MaxConcurrent: 1}
	transcripts := make([]*testbed.Transcript, len(instances))
	errs := make([]error, len(instances))
	// f never fails: each probe's error is its slot's.
	_ = fanout.Each(len(instances), spec.Workers, func(i int) error {
		inst := instances[i]
		switch {
		case ctx.Err() != nil:
			errs[i] = ctx.Err()
		case inst.Quadrant == respop.OpenIPv4 || inst.Quadrant == respop.OpenIPv6:
			transcripts[i], errs[i] = testbed.ProbeResolver(ctx, h.Net, inst.Addr, fmt.Sprintf("open-%d", inst.Index))
		default:
			m := platform.Measure(ctx, []atlas.Probe{{
				ID: inst.Index, Resolver: inst.Addr, IPv6: inst.Quadrant == respop.ClosedIPv6,
			}}, "closed")
			transcripts[i], errs[i] = m[0].Transcript, m[0].Err
		}
		return nil
	})
	probeSpan.End()

	mergeSpan := run.trace.Start("merge", plan.Index)
	defer mergeSpan.End()
	// Every aggregate is a sum or a histogram of sums, so the report
	// does not depend on the order this loop classifies in.
	for i, inst := range instances {
		out.Deployed[inst.Quadrant]++
		tr := transcripts[i]
		if errs[i] != nil || tr == nil {
			out.ProbeFailures++
			run.mProbeFail.Inc()
			continue
		}
		run.mProbed[inst.Quadrant].Inc()
		agg := out.PerQuadrant[inst.Quadrant]
		if agg == nil {
			agg = compliance.NewResolverAggregate()
			out.PerQuadrant[inst.Quadrant] = agg
		}
		c := compliance.ClassifyResolver(tr)
		agg.Add(c)
		if !c.IsValidator {
			continue
		}
		s := out.Series[inst.Quadrant]
		if s == nil {
			s = analysis.NewRCodeSeries(inst.Quadrant.String())
			out.Series[inst.Quadrant] = s
		}
		s.Observe(tr)
	}

	// Signing-work accounting once the shard's traffic has drained:
	// lazy thunks run from query-handling goroutines, so totals are
	// only final here.
	signed, reused := h.SignStats()
	run.mSigned.Add(uint64(signed))
	run.mReused.Add(uint64(reused))
	run.mShards.Inc()
	return out, nil
}

// ResolverStudyReport is the §5.2 output.
type ResolverStudyReport struct {
	// Series holds one Figure 3 subfigure per quadrant.
	Series map[respop.Quadrant]*analysis.RCodeSeries
	// PerQuadrant aggregates the Items 6–12 statistics per quadrant.
	PerQuadrant map[respop.Quadrant]*compliance.ResolverAggregate
	// Overall aggregates across all quadrants.
	Overall *compliance.ResolverAggregate
	// Deployed counts resolvers per quadrant.
	Deployed map[respop.Quadrant]int
	// Population is the plan-layer probed population per quadrant at
	// the study's scale: the paper's 1.9 M open + 2.5 K closed
	// resolvers, of which the deployed fleet is the validator subset.
	Population map[respop.Quadrant]int
	// ProbeFailures counts probes that yielded no transcript.
	ProbeFailures int
}

// resolverAccum is the ResolverStudyReport under construction.
type resolverAccum struct {
	report *ResolverStudyReport
}

func (s ResolverStudySpec) newAccum() accum[*ResolverShardOutcome, *ResolverStudyReport] {
	return &resolverAccum{report: &ResolverStudyReport{
		Series:      make(map[respop.Quadrant]*analysis.RCodeSeries),
		PerQuadrant: make(map[respop.Quadrant]*compliance.ResolverAggregate),
		Overall:     compliance.NewResolverAggregate(),
		Deployed:    make(map[respop.Quadrant]int),
		Population:  respop.PopulationCounts(s.ScaleDen),
	}}
}

func (b *resolverAccum) fold(o *ResolverShardOutcome) {
	for q, s := range o.Series {
		dst := b.report.Series[q]
		if dst == nil {
			dst = analysis.NewRCodeSeries(q.String())
			b.report.Series[q] = dst
		}
		dst.Merge(s)
	}
	for q, agg := range o.PerQuadrant {
		dst := b.report.PerQuadrant[q]
		if dst == nil {
			dst = compliance.NewResolverAggregate()
			b.report.PerQuadrant[q] = dst
		}
		dst.Merge(agg)
		b.report.Overall.Merge(agg)
	}
	for q, n := range o.Deployed {
		b.report.Deployed[q] += n
	}
	b.report.ProbeFailures += o.ProbeFailures
}

func (b *resolverAccum) finish() *ResolverStudyReport { return b.report }

// RunResolverStudy runs the whole study in-process through the study
// engine's Run: testbed signing is shared through one cache, and peak
// memory is O(one shard's resolvers).
func RunResolverStudy(ctx context.Context, cfg ResolverStudyConfig) (*ResolverStudyReport, error) {
	spec, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	return Run(ctx, spec, cfg.Obs, cfg.Trace)
}

// BuildTestbedWorld assembles root + com + the rfc9276 testbed on a
// fresh simulated network seeded with seed — the §4.2 infrastructure.
// Its keys are derived from seed too (testbed.WithSeed; an option in
// opts overrides it). The zones are identical across builds for the
// same constants, so they are marked Shared: with a sign cache attached
// (WithCache), repeated shard worlds reuse one signing of each zone.
func BuildTestbedWorld(seed uint64, opts ...testbed.BuilderOption) (*testbed.Hierarchy, error) {
	opts = append([]testbed.BuilderOption{testbed.WithSeed(seed)}, opts...)
	b := testbed.NewBuilder(DefaultInception, DefaultExpiration, opts...)
	testbed.InstallWorld(b)
	return b.Build(netsim.NewNetwork(seed))
}
