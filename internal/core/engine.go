package core

import (
	"context"
	"sort"

	"repro/internal/analysis"
	"repro/internal/compliance"
	"repro/internal/dnswire"
	"repro/internal/fanout"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/scanner"
	"repro/internal/testbed"
)

// This file is the §4.1 survey's instantiation of the study engine
// (study.go): SurveySpec supplies the shard plans over an index-pure
// domain universe, the generate→deploy→scan body that executes one
// plan, and the fold that merges one ShardOutcome into the
// SurveyReport.

// ShardJob is one unit of survey work.
type ShardJob = Job[SurveySpec, population.ShardPlan]

// ShardRunner executes ShardJobs; its sign cache deduplicates
// infrastructure signing across shard deployments.
type ShardRunner = Runner[SurveySpec, population.ShardPlan, *ShardOutcome, *SurveyReport]

// ReportBuilder folds ShardOutcomes into the final SurveyReport.
type ReportBuilder = Builder[*ShardOutcome, *SurveyReport]

// PlanJobs, NewShardRunner, and NewReportBuilder are the survey
// spellings of Plan, NewRunner, and NewBuilder.
func PlanJobs(spec SurveySpec) ([]ShardJob, error) { return Plan(spec) }

func NewShardRunner(reg *obs.Registry, trace *obs.Tracer, cache *testbed.SignCache) *ShardRunner {
	return NewRunner[SurveySpec](reg, trace, cache)
}

func NewReportBuilder(spec SurveySpec) *ReportBuilder { return NewBuilder(spec) }

// populationConfig is the universe the spec pins. Plan and execute both
// derive it through here, so planner and jobs can never disagree.
func (s SurveySpec) populationConfig() population.Config {
	return population.Config{Registered: s.Registered, Seed: s.Seed}
}

func (s SurveySpec) shardPlans() ([]population.ShardPlan, error) {
	p, err := population.NewShardPlanner(s.populationConfig())
	if err != nil {
		return nil, err
	}
	return p.Plan(s.Shards), nil
}

// ShardOutcome is the serializable result of executing one ShardJob:
// every per-shard aggregate the merge layer needs, nothing else. All
// fields round-trip through JSON unchanged, so a distributed run's
// report is byte-identical to an in-process one.
type ShardOutcome struct {
	// Index is the shard ordinal the outcome belongs to.
	Index int `json:"index"`
	// Agg summarizes the shard's scanned domain classifications.
	Agg *compliance.Aggregate `json:"agg"`
	// Operators feeds Table 2.
	Operators *analysis.OperatorStats `json:"operators"`
	// TLDs is the end-to-end TLD registry scan; only shard 0 carries it
	// (every shard signs the same registry zones, so once is enough).
	TLDs *compliance.Aggregate `json:"tlds,omitempty"`
	// ScanErrors counts domains (and, on shard 0, TLDs) whose scan
	// failed.
	ScanErrors int `json:"scan_errors"`
	// DomainsUnderIDTLDs counts this shard's registered domains under
	// Identity Digital TLDs (AXFR where open, list fallback otherwise).
	DomainsUnderIDTLDs int `json:"domains_under_id_tlds"`
	// TransferredTLDs names the Identity Digital TLD zones this shard
	// obtained via AXFR, sorted.
	TransferredTLDs []string `json:"transferred_tlds,omitempty"`
}

// ShardIndex implements Sharded.
func (o *ShardOutcome) ShardIndex() int { return o.Index }

// surveyExec is the survey's per-process shard executor: the planner
// for one spec plus the obs counters (all no-op without a registry).
type surveyExec struct {
	env
	spec    SurveySpec
	planner *population.ShardPlanner

	mScanned  *obs.Counter
	mIterWork *obs.Counter
	mSigned   *obs.Counter
	mReused   *obs.Counter
	mLazy     *obs.Counter
	mUntouch  *obs.Counter
	mRRSIGs   *obs.Counter
	mDeferred *obs.Counter
	mShards   *obs.Counter
	mRate     *obs.Gauge

	// Scan-throughput bookkeeping sums span durations so the tracer
	// stays the run's only clock.
	scannedDomains int
	scanSeconds    float64
}

func (s SurveySpec) newExecutor(e env) (executor[population.ShardPlan, *ShardOutcome], error) {
	planner, err := population.NewShardPlanner(s.populationConfig())
	if err != nil {
		return nil, err
	}
	reg := e.reg
	return &surveyExec{
		env:       e,
		spec:      s,
		planner:   planner,
		mScanned:  reg.Counter("survey_domains_scanned_total", "registered domains scanned successfully"),
		mIterWork: reg.Counter("survey_nsec3_iteration_work_total", "cumulative 1+iterations over scanned NSEC3 zones (Gruza et al. verification cost)"),
		mSigned:   reg.Counter("survey_zones_signed_total", "zones signed fresh (deploy-time or lazily on first query)"),
		mReused:   reg.Counter("survey_zones_reused_total", "zones served from the sign cache"),
		mLazy:     reg.Counter("survey_zones_signed_lazily_total", "zones materialized by their first query instead of at deploy time"),
		mUntouch:  reg.Counter("survey_zones_untouched_total", "deployed zones never queried during their shard — work lazy signing skipped entirely"),
		mRRSIGs:   reg.Counter("survey_rrsigs_signed_total", "RRSIGs made — by the first answer that carried them under lazy signing, all at deploy time otherwise"),
		mDeferred: reg.Counter("survey_rrsigs_deferred_total", "RRSIGs of signed zones that no answer needed, and so were never made"),
		mShards:   reg.Counter("survey_shards_completed_total", "survey shards executed to completion"),
		mRate:     reg.Gauge("survey_domains_per_second", "cumulative registered-domain scan throughput"),
	}, nil
}

// execute runs one shard plan end to end — generate, deploy onto its
// own simulated network, scan, fold.
func (run *surveyExec) execute(ctx context.Context, plan population.ShardPlan) (*ShardOutcome, error) {
	planner, spec := run.planner, run.spec

	gen := run.trace.Start("generate", plan.Index)
	shard, err := planner.GenerateShard(plan)
	gen.End()
	if err != nil {
		return nil, err
	}

	u := shard.Universe
	out := &ShardOutcome{
		Index:     shard.Index,
		Agg:       compliance.NewAggregate(),
		Operators: analysis.NewOperatorStats(),
	}

	deploySpan := run.trace.Start("deploy", shard.Index)
	opts := []population.DeployOption{population.WithSignCache(run.cache)}
	if spec.Signing != SigningEager {
		opts = append(opts, population.WithLazySigning())
	}
	dep, err := population.Deploy(u, netsim.NewNetwork(spec.Seed+uint64(shard.Index)), DefaultInception, DefaultExpiration, opts...)
	if err != nil {
		return nil, err
	}
	dep.Hierarchy.Net.Instrument(run.reg)
	dep.Hierarchy.Instrument(run.reg)
	resolverAddr := installScanResolver(dep.Hierarchy, run.reg, run.memo)
	sc := scanner.New(scanner.Config{
		Exchanger: dep.Hierarchy.Net,
		Resolver:  resolverAddr,
		Workers:   spec.Workers,
		Seed:      spec.Seed + 1 + uint64(shard.Index),
		Obs:       run.reg,
	})
	defer sc.Close()
	deploySpan.End()

	// Scan this shard's registered domains into per-worker sinks.
	names := make([]dnswire.Name, len(u.Domains))
	for i := range u.Domains {
		names[i] = u.Domains[i].Name
	}
	scanSpan := run.trace.Start("scan", shard.Index)
	sinks := make([]*surveySink, 0, spec.Workers)
	err = sc.ScanAll(ctx, scanner.Names(names), func(int) scanner.Sink {
		s := &surveySink{
			agg: compliance.NewAggregate(), ops: analysis.NewOperatorStats(),
			mScanned: run.mScanned, mIterWork: run.mIterWork,
		}
		sinks = append(sinks, s)
		return s
	})
	if err != nil {
		return nil, err
	}
	if shard.Index == 0 {
		tldSpan := run.trace.Start("tld_scan", shard.Index)
		err := run.scanTLDs(ctx, sc, u.TLDs, out)
		tldSpan.End()
		if err != nil {
			return nil, err
		}
	}
	transferSpan := run.trace.Start("transfer", shard.Index)
	err = run.countIDTLDDomains(ctx, dep, shard.Index, out)
	transferSpan.End()
	if err != nil {
		return nil, err
	}

	// Signing-work accounting happens once the shard's traffic has
	// drained: lazy thunks run from query-handling goroutines, so the
	// totals are only final here. SignStats is the one ledger of signing
	// work, whenever it ran, so the signed/reused counters are
	// comparable across signing modes.
	signed, reused := dep.Hierarchy.SignStats()
	run.mSigned.Add(uint64(signed))
	run.mReused.Add(uint64(reused))
	materialized, untouched := dep.Hierarchy.LazyStats()
	run.mLazy.Add(uint64(materialized))
	run.mUntouch.Add(uint64(untouched))
	made, total := dep.Hierarchy.SigStats()
	run.mRRSIGs.Add(uint64(made))
	run.mDeferred.Add(uint64(max(total-made, 0)))

	// The tracer owns the wall clock: throughput is derived from span
	// durations rather than read directly, keeping core deterministic.
	run.scannedDomains += len(u.Domains)
	run.scanSeconds += scanSpan.End().Seconds()
	if run.scanSeconds > 0 {
		run.mRate.Set(float64(run.scannedDomains) / run.scanSeconds)
	}

	mergeSpan := run.trace.Start("merge", shard.Index)
	defer mergeSpan.End()
	for _, s := range sinks {
		out.Agg.Merge(s.agg)
		out.Operators.Merge(s.ops)
		out.ScanErrors += s.scanErrors
	}
	run.mShards.Inc()
	return out, nil
}

// countIDTLDDomains is the ≥12.6 M-domains estimate: it counts
// delegations in Identity Digital TLD zones obtained via AXFR where the
// registry opens its zone data (the paper's CZDS/AXFR path), and falls
// back to the shard's registered-domain list — "necessarily incomplete
// and therefore only a lower bound" (§5.1) — for the rest. Transfers
// run on the survey's scan workers into per-TLD slots, folded in the
// universe's TLD order.
func (run *surveyExec) countIDTLDDomains(ctx context.Context, dep *population.Deployment, shardIndex int, out *ShardOutcome) error {
	u := dep.Universe
	idTLD := make(map[string]bool)
	for _, t := range run.planner.TLDs() {
		if t.Registry == population.IdentityDigitalName {
			idTLD[t.Name] = true
		}
	}
	listCounts := make(map[string]int)
	for i := range u.Domains {
		if idTLD[u.Domains[i].TLD] {
			listCounts[u.Domains[i].TLD]++
		}
	}
	// A shard-local zone delegates exactly the shard's domains, so for
	// a TLD with none of them the transfer is vacuous: it counts zero
	// delegations and would only force-sign a zone nothing else
	// touches. Shard 0 still transfers every open zone, keeping the
	// transferred set — and the report — exactly what a single-shard
	// run produces. delegations[i] counts u.TLDs[i]'s delegations, or
	// is −1 when that zone was not transferred.
	delegations := make([]int, len(u.TLDs))
	var open []int
	for i, t := range u.TLDs {
		delegations[i] = -1
		if idTLD[t.Name] && t.OpenZoneData && (shardIndex == 0 || listCounts[t.Name] > 0) {
			open = append(open, i)
		}
	}
	err := fanout.Each(len(open), run.spec.Workers, func(k int) error {
		t := u.TLDs[open[k]]
		apex, err := dnswire.FromLabels(t.Name)
		if err != nil {
			return err
		}
		// The AXFR path force-signs its zone explicitly: under lazy
		// signing a transfer must serve the complete signed zone, so
		// materialize it rather than relying on the query to do it.
		if _, err := dep.Hierarchy.Materialize(ctx, apex); err != nil {
			return err
		}
		if rrs, err := scanner.Transfer(ctx, dep.Hierarchy.Net, dep.TLDServers[t.Name], apex); err == nil {
			delegations[open[k]] = scanner.CountDelegations(apex, rrs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, t := range u.TLDs {
		switch {
		case !idTLD[t.Name]:
		case delegations[i] >= 0:
			out.DomainsUnderIDTLDs += delegations[i]
			out.TransferredTLDs = append(out.TransferredTLDs, t.Name)
		default:
			out.DomainsUnderIDTLDs += listCounts[t.Name]
		}
	}
	sort.Strings(out.TransferredTLDs)
	return nil
}

// scanTLDs pushes the TLD registry through the same scan pipeline,
// folding into the shard-0 outcome.
func (run *surveyExec) scanTLDs(ctx context.Context, sc *scanner.Scanner, tlds []population.TLDSpec, out *ShardOutcome) error {
	names := make([]dnswire.Name, 0, len(tlds))
	for _, t := range tlds {
		n, err := dnswire.FromLabels(t.Name)
		if err != nil {
			return err
		}
		names = append(names, n)
	}
	var sinks []*surveySink
	err := sc.ScanAll(ctx, scanner.Names(names), func(int) scanner.Sink {
		// TLD scans charge iteration work but not the domain counter —
		// survey_domains_scanned_total means registered domains.
		s := &surveySink{agg: compliance.NewAggregate(), mIterWork: run.mIterWork}
		sinks = append(sinks, s)
		return s
	})
	if err != nil {
		return err
	}
	agg := compliance.NewAggregate()
	for _, s := range sinks {
		agg.Merge(s.agg)
		out.ScanErrors += s.scanErrors
	}
	out.TLDs = agg
	return nil
}

// surveyAccum is the SurveyReport under construction. The registry-side
// aggregates (TLDAgg) come from the spec, not the outcomes — they are
// generated, not scanned.
type surveyAccum struct {
	report      *SurveyReport
	transferred map[string]bool
}

func (s SurveySpec) newAccum() accum[*ShardOutcome, *SurveyReport] {
	return &surveyAccum{
		report: &SurveyReport{
			Agg:       compliance.NewAggregate(),
			Operators: analysis.NewOperatorStats(),
			TLDAgg:    population.AggregateTLDs(population.GenerateTLDs(s.Seed)),
		},
		transferred: make(map[string]bool),
	}
}

func (b *surveyAccum) fold(o *ShardOutcome) {
	b.report.Agg.Merge(o.Agg)
	b.report.Operators.Merge(o.Operators)
	b.report.ScanErrors += o.ScanErrors
	b.report.DomainsUnderIDTLDs += o.DomainsUnderIDTLDs
	if o.TLDs != nil {
		b.report.TLDs = *o.TLDs
	}
	for _, name := range o.TransferredTLDs {
		b.transferred[name] = true
	}
}

func (b *surveyAccum) finish() *SurveyReport {
	b.report.TLDZonesTransferred = len(b.transferred)
	// Figure 1 CDFs from the merged histograms.
	iterHist := make(map[int]int, len(b.report.Agg.IterationsHist))
	for v, c := range b.report.Agg.IterationsHist {
		iterHist[int(v)] = c
	}
	b.report.IterCDF = analysis.CDFFromHist(iterHist)
	b.report.SaltCDF = analysis.CDFFromHist(b.report.Agg.SaltLenHist)
	return b.report
}
