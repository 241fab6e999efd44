// Command repro regenerates every table and figure of "Zeros Are
// Heroes: NSEC3 Parameter Settings in the Wild" (IMC 2024) from the
// simulated reproduction, printing each alongside the paper's reported
// numbers. Absolute counts are scale-dependent (the default universe is
// a 1:10,000-scale calibrated synthesis); the shapes — who wins, where
// the thresholds sit, which shares dominate — are the reproduction
// targets recorded in EXPERIMENTS.md.
//
//	repro -all                # everything (default)
//	repro -table1             # RFC 9276 guideline table
//	repro -fig1 -table2 -tlds # domain-side experiment (§5.1)
//	repro -fig2               # Tranco popularity study
//	repro -fig3               # resolver-side experiment (§5.2)
//
//	-scale divides the paper's population sizes (default 10000 for
//	domains, 200 for resolvers); -seed fixes the universe.
//
//	-metrics :9090 serves /metrics + /healthz while experiments run;
//	-trace trace.ndjson records per-shard survey phase timings.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/compliance"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/respop"
	"repro/internal/scanner"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		table1   = flag.Bool("table1", false, "Table 1: RFC 9276 guidelines")
		fig1     = flag.Bool("fig1", false, "Figure 1 + §5.1 domain stats")
		fig2     = flag.Bool("fig2", false, "Figure 2: Tranco popularity study")
		table2   = flag.Bool("table2", false, "Table 2: name server operators")
		tlds     = flag.Bool("tlds", false, "§5.1 TLD statistics")
		fig3     = flag.Bool("fig3", false, "Figure 3 + §5.2 resolver stats")
		timeline = flag.Bool("timeline", false, "§6 future work: compliance over the 2020–2024 migrations")

		statewalk       = flag.Bool("statewalk", false, "differential state-machine walk: every (topology × profile) cell vs the expectation model")
		statewalkBudget = flag.Int("statewalk-budget", 0, "statewalk: bound the enumeration to this many cells (0 = all)")
		statewalkOut    = flag.String("statewalk-out", "statewalk.ndjson", "statewalk: write divergence records to this NDJSON file")
		statewalkCells  = flag.Bool("statewalk-cells", false, "statewalk: record every cell, not just divergences")
		statewalkCorpus = flag.String("statewalk-corpus", "", "statewalk: write fuzz-corpus seeds minimized from unexplained divergences under this directory")
		seed            = flag.Uint64("seed", 1, "simulation seed")
		shards          = flag.Int("shards", 1, "run the domain survey and the resolver study in this many bounded shards (same results at any value)")
		dScale          = flag.Int("domain-scale", 10000, "divide the 302 M-domain universe by this")
		rScale          = flag.Int("resolver-scale", 200, "divide the resolver fleet by this")
		tScale          = flag.Int("tranco-scale", 100, "divide the 1 M Tranco list by this")
		metrics         = flag.String("metrics", "", "serve /metrics and /healthz on this address while running")
		traceOut        = flag.String("trace", "", "append per-shard phase spans (survey and resolver study) to this NDJSON file")

		serveAddr  = flag.String("serve", "", "coordinate the study (-fig3: resolver study; otherwise the domain survey) for -worker processes on this TCP address (e.g. 127.0.0.1:0)")
		workerAddr = flag.String("worker", "", "execute the study's shards for the coordinator at this TCP address (start with the same study flags)")
		stateDir   = flag.String("state-dir", "", "coordinator: directory for crash-safe shard checkpoints")
		resume     = flag.Bool("resume", false, "coordinator: resume the study recorded in -state-dir instead of starting fresh")
		leaseTTL   = flag.Duration("lease-ttl", 0, "coordinator: re-lease shards from workers silent this long (default 10s)")
	)
	flag.Parse()
	if !(*table1 || *fig1 || *fig2 || *table2 || *tlds || *fig3 || *timeline || *statewalk) {
		*all = true
	}
	ctx := context.Background()

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		bound, stop, err := obs.Serve(*metrics, reg)
		if err != nil {
			return err
		}
		// Best-effort teardown: the process is exiting anyway.
		defer func() { _ = stop() }()
		fmt.Fprintf(os.Stderr, "repro: metrics on http://%s/metrics\n", bound)
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		// Spans are flushed line-by-line by the encoder; Close only
		// releases the descriptor.
		defer func() { _ = f.Close() }()
		tracer = obs.NewTracer(scanner.NewEncoder(f))
	}

	if *serveAddr != "" || *workerAddr != "" {
		if *serveAddr != "" && *workerAddr != "" {
			return fmt.Errorf("-serve and -worker are mutually exclusive")
		}
		// Distributed mode runs exactly one study kind: -fig3 selects the
		// §4.2 resolver study, anything else the §4.1 domain survey.
		if *fig3 {
			if *fig1 || *table2 || *tlds || *fig2 || *all {
				return fmt.Errorf("distributed mode runs one study at a time: pass -fig3 alone or the domain-survey sections alone")
			}
			rspec, err := core.ResolverStudyConfig{
				ScaleDen: *rScale,
				Seed:     *seed,
				Shards:   *shards,
			}.Resolve()
			if err != nil {
				return err
			}
			if *workerAddr != "" {
				return runDistWorker(ctx, *workerAddr, rspec, reg, tracer)
			}
			return runDistCoordinator(ctx, *serveAddr, rspec, reg, *stateDir, *resume, *leaseTTL, printFig3)
		}
		spec, err := core.SurveyConfig{
			Registered: population.FullRegistered / *dScale,
			Seed:       *seed,
			Shards:     *shards,
		}.Resolve()
		if err != nil {
			return err
		}
		if *workerAddr != "" {
			return runDistWorker(ctx, *workerAddr, spec, reg, tracer)
		}
		return runDistCoordinator(ctx, *serveAddr, spec, reg, *stateDir, *resume, *leaseTTL, func(report *core.SurveyReport) {
			if *all || *fig1 {
				printFig1(report)
			}
			if *all || *table2 {
				printTable2(report)
			}
			if *all || *tlds {
				printTLDs(report)
			}
		})
	}

	if *statewalk {
		if err := runStatewalk(ctx, statewalkOptions{
			seed:      *seed,
			budget:    *statewalkBudget,
			out:       *statewalkOut,
			emitCells: *statewalkCells,
			corpusDir: *statewalkCorpus,
			obs:       reg,
		}); err != nil {
			return err
		}
	}

	if *all || *table1 {
		printTable1()
	}

	var survey *core.SurveyReport
	if *all || *fig1 || *table2 || *tlds {
		fmt.Printf("== Running the §4.1 domain survey (%d domains, 1:%d scale, seed %d)…\n\n",
			population.FullRegistered / *dScale, *dScale, *seed)
		var err error
		survey, err = core.RunSurvey(ctx, core.SurveyConfig{
			Registered: population.FullRegistered / *dScale,
			Seed:       *seed,
			Shards:     *shards,
			Obs:        reg,
			Trace:      tracer,
		})
		if err != nil {
			return err
		}
	}
	if (*all || *fig1) && survey != nil {
		printFig1(survey)
	}
	if (*all || *table2) && survey != nil {
		printTable2(survey)
	}
	if (*all || *tlds) && survey != nil {
		printTLDs(survey)
	}

	if *all || *fig2 {
		fmt.Printf("== Running the Tranco popularity study (%d ranked domains, 1:%d scale, seed %d)…\n\n",
			1000000 / *tScale, *tScale, *seed)
		tr, err := core.RunTrancoStudy(ctx, core.TrancoConfig{
			ListSize: 1000000 / *tScale,
			Seed:     *seed,
		})
		if err != nil {
			return err
		}
		printFig2(tr)
	}

	if *all || *fig3 {
		fmt.Printf("== Running the §4.2 resolver study (fleet at 1:%d scale, %d shard(s), seed %d)…\n\n", *rScale, *shards, *seed)
		rs, err := core.RunResolverStudy(ctx, core.ResolverStudyConfig{
			ScaleDen: *rScale,
			Seed:     *seed,
			Shards:   *shards,
			Obs:      reg,
			Trace:    tracer,
		})
		if err != nil {
			return err
		}
		printFig3(rs)
	}

	if *all || *timeline {
		samples, err := core.RunTimeline(ctx, core.TimelineConfig{
			Registered: population.FullRegistered / *dScale,
			Seed:       *seed,
		})
		if err != nil {
			return err
		}
		core.RenderTimeline(os.Stdout, samples)
		fmt.Println()
	}
	return nil
}

func printTable1() {
	fmt.Println("==== Table 1: RFC 9276 guidelines for authoritative name servers (1–5) and validating resolvers (6–12)")
	for _, g := range compliance.Guidelines() {
		aud := "auth"
		if g.Audience == compliance.AudienceResolver {
			aud = "res"
		}
		fmt.Printf("  %2d. [%-4s] %-15s %s\n", g.Item, aud, g.Keyword, g.Guidance)
	}
	fmt.Println()
}

func printFig1(s *core.SurveyReport) {
	agg := s.Agg
	fmt.Println("==== Figure 1 + §5.1 registered-domain statistics")
	fmt.Printf("  registered domains scanned        %9d   (paper: 302 M, scaled)\n", agg.Total)
	fmt.Printf("  DNSSEC-enabled                    %9d = %5.1f %%  (paper: 26.6 M = 8.8 %%)\n",
		agg.DNSSECEnabled, compliance.Pct(agg.DNSSECEnabled, agg.Total))
	fmt.Printf("  NSEC3-enabled                     %9d = %5.1f %% of DNSSEC  (paper: 15.5 M = 58.9 %%)\n",
		agg.NSEC3Enabled, compliance.Pct(agg.NSEC3Enabled, agg.DNSSECEnabled))
	fmt.Printf("  Item 2 OK (0 additional iter.)    %9d = %5.1f %%  (paper: 12.2 %% — i.e. 87.8 %% non-compliant)\n",
		agg.Item2OK, compliance.Pct(agg.Item2OK, agg.NSEC3Enabled))
	fmt.Printf("  Item 3 OK (no salt)               %9d = %5.1f %%  (paper: 8.6 %%)\n",
		agg.Item3OK, compliance.Pct(agg.Item3OK, agg.NSEC3Enabled))
	fmt.Printf("  opt-out set (Items 4/5)           %9d = %5.1f %%  (paper: 6.4 %%)\n",
		agg.OptOut, compliance.Pct(agg.OptOut, agg.NSEC3Enabled))
	fmt.Println()
	analysis.RenderCDF(os.Stdout, "  CDF of additional iterations (paper: 12.2 % at 0, 99.9 % ≤ 25, max 500)",
		s.IterCDF, []int{0, 1, 5, 10, 25, 50, 100, 150, 500})
	fmt.Println()
	analysis.RenderCDF(os.Stdout, "  CDF of salt length in bytes (paper: 8.6 % at 0, 97.2 % ≤ 10, max 160)",
		s.SaltCDF, []int{0, 1, 4, 8, 10, 40, 45, 160})
	fmt.Println()
}

func printTable2(s *core.SurveyReport) {
	fmt.Println("==== Table 2: top name server operators of NSEC3-enabled domains (paper: top 10 = 77.7 %)")
	rows := s.Operators.Top(10)
	analysis.RenderOperatorTable(os.Stdout, rows)
	fmt.Printf("  (of %d NSEC3-enabled domains with exclusive operators)\n\n", s.Operators.Total())
}

func printTLDs(s *core.SurveyReport) {
	fmt.Println("==== §5.1 TLD statistics (scanned end-to-end; registry calibrated to March 2024)")
	t := s.TLDs
	fmt.Printf("  TLDs scanned                      %6d   (paper: 1,449)\n", t.Total)
	fmt.Printf("  DNSSEC-enabled                    %6d   (paper: 1,354)\n", t.DNSSECEnabled)
	fmt.Printf("  NSEC3-enabled                     %6d   (paper: 1,302 = 96.2 %% of DNSSEC)\n", t.NSEC3Enabled)
	fmt.Printf("  zero additional iterations        %6d   (paper: 688)\n", t.Item2OK)
	fmt.Printf("  at 100 additional iterations      %6d   (paper: 447, all Identity Digital)\n", t.IterationsHist[100])
	fmt.Printf("  no salt                           %6d   (paper: 672)\n", t.Item3OK)
	fmt.Printf("  8-byte salt                       %6d   (paper: 558)\n", t.SaltLenHist[8])
	fmt.Printf("  10-byte salt                      %6d   (paper: 7, the maximum)\n", t.SaltLenHist[10])
	fmt.Printf("  opt-out                           %6d = %4.1f %%  (paper: 85.4 %%)\n",
		t.OptOut, compliance.Pct(t.OptOut, t.NSEC3Enabled))
	fmt.Printf("  open zone data (registry side)    %6d   (paper: 1,105 = 84.9 %%)\n", s.TLDAgg.OpenZoneData)
	fmt.Printf("  domains under Identity Digital    %6d   (paper: ≥12.6 M, scaled lower bound)\n\n",
		s.DomainsUnderIDTLDs)
}

func printFig2(tr *core.TrancoReport) {
	fmt.Println("==== Figure 2: NSEC3 among popular (Tranco-style) domains")
	fmt.Printf("  ranked domains scanned            %7d   (paper list: 1 M)\n", tr.ListSize)
	fmt.Printf("  DNSSEC-enabled                    %7d = %5.1f %%  (paper: 66.6 K = 6.7 %%)\n",
		tr.DNSSECEnabled, compliance.Pct(tr.DNSSECEnabled, tr.ListSize))
	fmt.Printf("  NSEC3-enabled                     %7d = %5.1f %% of DNSSEC  (paper: 27.2 K = 40.8 %%)\n",
		tr.NSEC3Enabled, compliance.Pct(tr.NSEC3Enabled, tr.DNSSECEnabled))
	fmt.Printf("  zero additional iterations        %7d = %5.1f %%  (paper: 6.2 K = 22.8 %%)\n",
		tr.ZeroIter, compliance.Pct(tr.ZeroIter, tr.NSEC3Enabled))
	fmt.Printf("  no salt                           %7d = %5.1f %%  (paper: 6.4 K = 23.6 %%)\n",
		tr.NoSalt, compliance.Pct(tr.NoSalt, tr.NSEC3Enabled))
	fmt.Printf("  both (fully compliant)            %7d = %5.1f %%  (paper: 3.5 K = 12.7 %%)\n",
		tr.Both, compliance.Pct(tr.Both, tr.NSEC3Enabled))
	// Uniformity of ranks: quartiles of the rank CDF should sit near
	// 25/50/75 % of the list (the paper's curves "increase uniformly").
	fmt.Printf("  rank quartiles of NSEC3 domains   p25=%d p50=%d p75=%d of %d (uniform ⇒ ≈ quarters)\n\n",
		tr.RankCDF.Percentile(0.25), tr.RankCDF.Percentile(0.50),
		tr.RankCDF.Percentile(0.75), tr.ListSize)
}

func printFig3(rs *core.ResolverStudyReport) {
	fmt.Println("==== Figure 3 + §5.2 resolver statistics")
	quads := []respop.Quadrant{respop.OpenIPv4, respop.OpenIPv6, respop.ClosedIPv4, respop.ClosedIPv6}
	for _, q := range quads {
		if s := rs.Series[q]; s != nil {
			analysis.RenderRCodeSeries(os.Stdout, s)
			analysis.SparkRender(os.Stdout, s)
			fmt.Println()
		}
	}
	var deployed, population int
	for _, q := range quads {
		deployed += rs.Deployed[q]
		population += rs.Population[q]
	}
	fmt.Printf("  deployed fleet                    %6d resolvers (modeling a %d-resolver population; paper: 1.9 M open + 2.5 K closed)\n",
		deployed, population)
	fmt.Printf("  probe failures (no transcript)    %6d\n", rs.ProbeFailures)
	o := rs.Overall
	fmt.Printf("  validators (all quadrants)        %6d of %d probed\n", o.Validators, o.Probed)
	fmt.Printf("  Item 6 (insecure above a limit)   %6d = %5.1f %%  (paper: 59.9 %%)\n",
		o.Item6, compliance.Pct(o.Item6, o.Validators))
	fmt.Printf("  Item 8 (SERVFAIL above a limit)   %6d = %5.1f %%  (paper: 18.4 %%)\n",
		o.Item8, compliance.Pct(o.Item8, o.Validators))
	fmt.Println("  insecure limits observed (paper: 150 dominant, 100 common, 50 = 150/12.5):")
	printHist(o.InsecureLimits)
	fmt.Println("  SERVFAIL start points observed (paper: mostly 151; 418 resolvers at 1; 92 at 101):")
	printHist(o.ServfailFroms)
	fmt.Printf("  Item 7 violations                 %6d = %5.2f %%  (paper: 0.2 %%)\n",
		o.Item7Violations, compliance.Pct(o.Item7Violations, o.Validators))
	fmt.Printf("  three-phase (Item 12 gap)         %6d = %5.1f %%  (paper: 4.3 %%)\n",
		o.ThreePhase, compliance.Pct(o.ThreePhase, o.Validators))
	limited := o.Item6 + o.Item8
	fmt.Printf("  EDE attached (any code)           %6d = %5.1f %% of limit-implementing  (paper: <18 %% with code 27)\n",
		o.EDEAny, compliance.Pct(o.EDEAny, limited))
	fmt.Printf("  EDE INFO-CODE 27 specifically     %6d = %5.1f %%\n",
		o.EDE27, compliance.Pct(o.EDE27, limited))
	fmt.Printf("  RA echoed (broken forwarders)     %6d\n\n", o.EchoRA)
}

func printHist(h map[int]int) {
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Printf("    limit %4d: %6d resolvers\n", k, h[k])
	}
}
