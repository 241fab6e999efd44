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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"repro/internal/analysis"
	"repro/internal/compliance"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/respop"
	"repro/internal/scanner"
	"repro/internal/statewalk"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run runs the experiments args select, printing the report to stdout
// and progress to stderr. It returns the exit status: 0, 1 when an
// experiment fails, 2 on a flag that does not parse (0 for -h).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all    = fs.Bool("all", false, "run every experiment")
		table1 = fs.Bool("table1", false, "Table 1: RFC 9276 guidelines")
		fig1   = fs.Bool("fig1", false, "Figure 1 + §5.1 domain stats")
		fig2   = fs.Bool("fig2", false, "Figure 2: Tranco popularity study")
		table2 = fs.Bool("table2", false, "Table 2: name server operators")
		tlds   = fs.Bool("tlds", false, "§5.1 TLD statistics")
		fig3   = fs.Bool("fig3", false, "Figure 3 + §5.2 resolver stats")

		walk           = fs.Bool("statewalk", false, "differential state-machine walk: every (topology × profile) cell vs the expectation model")
		statewalkOut   = fs.String("statewalk-out", "statewalk.ndjson", "statewalk: write divergence records to this NDJSON file")
		statewalkCells = fs.Bool("statewalk-cells", false, "statewalk: record every cell, not just divergences")
		seed           = fs.Uint64("seed", 1, "simulation seed")
		shards         = fs.Int("shards", 1, "run the domain survey and the resolver study in this many bounded shards (same results at any value)")
		dScale         = fs.Int("domain-scale", 10000, "divide the 302 M-domain universe by this")
		rScale         = fs.Int("resolver-scale", 200, "divide the resolver fleet by this")
		tScale         = fs.Int("tranco-scale", 100, "divide the 1 M Tranco list by this")
		metrics        = fs.String("metrics", "", "serve /metrics and /healthz on this address while running")
		traceOut       = fs.String("trace", "", "append per-shard phase spans (survey and resolver study) to this NDJSON file")

		serveAddr  = fs.String("serve", "", "coordinate the study (-fig3: resolver study; otherwise the domain survey) for -worker processes on this TCP address (e.g. 127.0.0.1:0)")
		workerAddr = fs.String("worker", "", "execute the study's shards for the coordinator at this TCP address (start with the same study flags)")
		stateDir   = fs.String("state-dir", "", "coordinator: directory for crash-safe shard checkpoints")
		resume     = fs.Bool("resume", false, "coordinator: resume the study recorded in -state-dir instead of starting fresh")
		leaseTTL   = fs.Duration("lease-ttl", 0, "coordinator: re-lease shards from workers silent this long (default 10s)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	exit := func(err error) int {
		if err != nil {
			fmt.Fprintln(stderr, "repro:", err)
			return 1
		}
		return 0
	}
	if !(*table1 || *fig1 || *fig2 || *table2 || *tlds || *fig3 || *walk) {
		*all = true
	}
	// printSurvey prints the domain-survey sections the flags select,
	// for the in-process run and the coordinator alike.
	printSurvey := func(w io.Writer, s *core.SurveyReport) {
		if *all || *fig1 {
			printFig1(w, s)
		}
		if *all || *table2 {
			printTable2(w, s)
		}
		if *all || *tlds {
			printTLDs(w, s)
		}
	}

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		bound, stop, err := obs.Serve(*metrics, reg)
		if err != nil {
			return exit(err)
		}
		// Best-effort teardown: the process is exiting anyway.
		defer func() { _ = stop() }()
		fmt.Fprintf(stderr, "repro: metrics on http://%s/metrics\n", bound)
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return exit(err)
		}
		// Spans are flushed line-by-line by the encoder; Close only
		// releases the descriptor.
		defer func() { _ = f.Close() }()
		tracer = obs.NewTracer(scanner.NewEncoder(f))
	}

	if *serveAddr != "" || *workerAddr != "" {
		if *serveAddr != "" && *workerAddr != "" {
			return exit(fmt.Errorf("-serve and -worker are mutually exclusive"))
		}
		// Distributed mode runs exactly one study kind: -fig3 selects the
		// §4.2 resolver study, anything else the §4.1 domain survey.
		if *fig3 {
			if *fig1 || *table2 || *tlds || *fig2 || *all {
				return exit(fmt.Errorf("distributed mode runs one study at a time: pass -fig3 alone or the domain-survey sections alone"))
			}
			rspec, err := core.ResolverStudyConfig{
				ScaleDen: *rScale,
				Seed:     *seed,
				Shards:   *shards,
			}.Resolve()
			if err != nil {
				return exit(err)
			}
			if *workerAddr != "" {
				return exit(runDistWorker(ctx, *workerAddr, rspec, reg, tracer, stderr))
			}
			return exit(runDistCoordinator(ctx, *serveAddr, rspec, reg, *stateDir, *resume, *leaseTTL, stdout, stderr, printFig3))
		}
		spec, err := core.SurveyConfig{
			Registered: population.FullRegistered / *dScale,
			Seed:       *seed,
			Shards:     *shards,
		}.Resolve()
		if err != nil {
			return exit(err)
		}
		if *workerAddr != "" {
			return exit(runDistWorker(ctx, *workerAddr, spec, reg, tracer, stderr))
		}
		return exit(runDistCoordinator(ctx, *serveAddr, spec, reg, *stateDir, *resume, *leaseTTL, stdout, stderr, printSurvey))
	}

	if *walk {
		if err := runStatewalk(ctx, stdout, *statewalkOut, statewalk.Config{
			Seed: *seed, EmitCells: *statewalkCells, Obs: reg,
		}); err != nil {
			return exit(err)
		}
	}

	if *all || *table1 {
		printTable1(stdout)
	}

	if *all || *fig1 || *table2 || *tlds {
		fmt.Fprintf(stdout, "== Running the §4.1 domain survey (%d domains, 1:%d scale, seed %d)…\n\n",
			population.FullRegistered / *dScale, *dScale, *seed)
		survey, err := core.RunSurvey(ctx, core.SurveyConfig{
			Registered: population.FullRegistered / *dScale,
			Seed:       *seed,
			Shards:     *shards,
			Obs:        reg,
			Trace:      tracer,
		})
		if err != nil {
			return exit(err)
		}
		printSurvey(stdout, survey)
	}

	if *all || *fig2 {
		fmt.Fprintf(stdout, "== Running the Tranco popularity study (%d ranked domains, 1:%d scale, seed %d)…\n\n",
			1000000 / *tScale, *tScale, *seed)
		tr, err := core.RunTrancoStudy(ctx, core.TrancoConfig{
			ListSize: 1000000 / *tScale,
			Seed:     *seed,
		})
		if err != nil {
			return exit(err)
		}
		printFig2(stdout, tr)
	}

	if *all || *fig3 {
		fmt.Fprintf(stdout, "== Running the §4.2 resolver study (fleet at 1:%d scale, %d shard(s), seed %d)…\n\n", *rScale, *shards, *seed)
		rs, err := core.RunResolverStudy(ctx, core.ResolverStudyConfig{
			ScaleDen: *rScale,
			Seed:     *seed,
			Shards:   *shards,
			Obs:      reg,
			Trace:    tracer,
		})
		if err != nil {
			return exit(err)
		}
		printFig3(stdout, rs)
	}
	return 0
}

func printTable1(w io.Writer) {
	fmt.Fprintln(w, "==== Table 1: RFC 9276 guidelines for authoritative name servers (1–5) and validating resolvers (6–12)")
	for _, g := range compliance.Guidelines() {
		aud := "auth"
		if g.Audience == compliance.AudienceResolver {
			aud = "res"
		}
		fmt.Fprintf(w, "  %2d. [%-4s] %-15s %s\n", g.Item, aud, g.Keyword, g.Guidance)
	}
	fmt.Fprintln(w)
}

func printFig1(w io.Writer, s *core.SurveyReport) {
	agg := s.Agg
	fmt.Fprintln(w, "==== Figure 1 + §5.1 registered-domain statistics")
	fmt.Fprintf(w, "  registered domains scanned        %9d   (paper: 302 M, scaled)\n", agg.Total)
	fmt.Fprintf(w, "  DNSSEC-enabled                    %9d = %5.1f %%  (paper: 26.6 M = 8.8 %%)\n",
		agg.DNSSECEnabled, compliance.Pct(agg.DNSSECEnabled, agg.Total))
	fmt.Fprintf(w, "  NSEC3-enabled                     %9d = %5.1f %% of DNSSEC  (paper: 15.5 M = 58.9 %%)\n",
		agg.NSEC3Enabled, compliance.Pct(agg.NSEC3Enabled, agg.DNSSECEnabled))
	fmt.Fprintf(w, "  Item 2 OK (0 additional iter.)    %9d = %5.1f %%  (paper: 12.2 %% — i.e. 87.8 %% non-compliant)\n",
		agg.Item2OK, compliance.Pct(agg.Item2OK, agg.NSEC3Enabled))
	fmt.Fprintf(w, "  Item 3 OK (no salt)               %9d = %5.1f %%  (paper: 8.6 %%)\n",
		agg.Item3OK, compliance.Pct(agg.Item3OK, agg.NSEC3Enabled))
	fmt.Fprintf(w, "  opt-out set (Items 4/5)           %9d = %5.1f %%  (paper: 6.4 %%)\n",
		agg.OptOut, compliance.Pct(agg.OptOut, agg.NSEC3Enabled))
	fmt.Fprintln(w)
	analysis.RenderCDF(w, "  CDF of additional iterations (paper: 12.2 % at 0, 99.9 % ≤ 25, max 500)",
		s.IterCDF, []int{0, 1, 5, 10, 25, 50, 100, 150, 500})
	fmt.Fprintln(w)
	analysis.RenderCDF(w, "  CDF of salt length in bytes (paper: 8.6 % at 0, 97.2 % ≤ 10, max 160)",
		s.SaltCDF, []int{0, 1, 4, 8, 10, 40, 45, 160})
	fmt.Fprintln(w)
}

func printTable2(w io.Writer, s *core.SurveyReport) {
	fmt.Fprintln(w, "==== Table 2: top name server operators of NSEC3-enabled domains (paper: top 10 = 77.7 %)")
	rows := s.Operators.Top(10)
	analysis.RenderOperatorTable(w, rows)
	fmt.Fprintf(w, "  (of %d NSEC3-enabled domains with exclusive operators)\n\n", s.Operators.Total())
}

func printTLDs(w io.Writer, s *core.SurveyReport) {
	fmt.Fprintln(w, "==== §5.1 TLD statistics (scanned end-to-end; registry calibrated to March 2024)")
	t := s.TLDs
	fmt.Fprintf(w, "  TLDs scanned                      %6d   (paper: 1,449)\n", t.Total)
	fmt.Fprintf(w, "  DNSSEC-enabled                    %6d   (paper: 1,354)\n", t.DNSSECEnabled)
	fmt.Fprintf(w, "  NSEC3-enabled                     %6d   (paper: 1,302 = 96.2 %% of DNSSEC)\n", t.NSEC3Enabled)
	fmt.Fprintf(w, "  zero additional iterations        %6d   (paper: 688)\n", t.Item2OK)
	fmt.Fprintf(w, "  at 100 additional iterations      %6d   (paper: 447, all Identity Digital)\n", t.IterationsHist[100])
	fmt.Fprintf(w, "  no salt                           %6d   (paper: 672)\n", t.Item3OK)
	fmt.Fprintf(w, "  8-byte salt                       %6d   (paper: 558)\n", t.SaltLenHist[8])
	fmt.Fprintf(w, "  10-byte salt                      %6d   (paper: 7, the maximum)\n", t.SaltLenHist[10])
	fmt.Fprintf(w, "  opt-out                           %6d = %4.1f %%  (paper: 85.4 %%)\n",
		t.OptOut, compliance.Pct(t.OptOut, t.NSEC3Enabled))
	fmt.Fprintf(w, "  open zone data (registry side)    %6d   (paper: 1,105 = 84.9 %%)\n", s.TLDAgg.OpenZoneData)
	fmt.Fprintf(w, "  domains under Identity Digital    %6d   (paper: ≥12.6 M, scaled lower bound)\n\n",
		s.DomainsUnderIDTLDs)
}

func printFig2(w io.Writer, tr *core.TrancoReport) {
	fmt.Fprintln(w, "==== Figure 2: NSEC3 among popular (Tranco-style) domains")
	fmt.Fprintf(w, "  ranked domains scanned            %7d   (paper list: 1 M)\n", tr.ListSize)
	fmt.Fprintf(w, "  DNSSEC-enabled                    %7d = %5.1f %%  (paper: 66.6 K = 6.7 %%)\n",
		tr.DNSSECEnabled, compliance.Pct(tr.DNSSECEnabled, tr.ListSize))
	fmt.Fprintf(w, "  NSEC3-enabled                     %7d = %5.1f %% of DNSSEC  (paper: 27.2 K = 40.8 %%)\n",
		tr.NSEC3Enabled, compliance.Pct(tr.NSEC3Enabled, tr.DNSSECEnabled))
	fmt.Fprintf(w, "  zero additional iterations        %7d = %5.1f %%  (paper: 6.2 K = 22.8 %%)\n",
		tr.ZeroIter, compliance.Pct(tr.ZeroIter, tr.NSEC3Enabled))
	fmt.Fprintf(w, "  no salt                           %7d = %5.1f %%  (paper: 6.4 K = 23.6 %%)\n",
		tr.NoSalt, compliance.Pct(tr.NoSalt, tr.NSEC3Enabled))
	fmt.Fprintf(w, "  both (fully compliant)            %7d = %5.1f %%  (paper: 3.5 K = 12.7 %%)\n",
		tr.Both, compliance.Pct(tr.Both, tr.NSEC3Enabled))
	// Uniformity of ranks: quartiles of the rank CDF should sit near
	// 25/50/75 % of the list (the paper's curves "increase uniformly").
	fmt.Fprintf(w, "  rank quartiles of NSEC3 domains   p25=%d p50=%d p75=%d of %d (uniform ⇒ ≈ quarters)\n\n",
		tr.RankCDF.Percentile(0.25), tr.RankCDF.Percentile(0.50),
		tr.RankCDF.Percentile(0.75), tr.ListSize)
}

func printFig3(w io.Writer, rs *core.ResolverStudyReport) {
	fmt.Fprintln(w, "==== Figure 3 + §5.2 resolver statistics")
	quads := []respop.Quadrant{respop.OpenIPv4, respop.OpenIPv6, respop.ClosedIPv4, respop.ClosedIPv6}
	for _, q := range quads {
		if s := rs.Series[q]; s != nil {
			analysis.RenderRCodeSeries(w, s)
			analysis.SparkRender(w, s)
			fmt.Fprintln(w)
		}
	}
	var deployed, population int
	for _, q := range quads {
		deployed += rs.Deployed[q]
		population += rs.Population[q]
	}
	fmt.Fprintf(w, "  deployed fleet                    %6d resolvers (modeling a %d-resolver population; paper: 1.9 M open + 2.5 K closed)\n",
		deployed, population)
	fmt.Fprintf(w, "  probe failures (no transcript)    %6d\n", rs.ProbeFailures)
	o := rs.Overall
	fmt.Fprintf(w, "  validators (all quadrants)        %6d of %d probed\n", o.Validators, o.Probed)
	fmt.Fprintf(w, "  Item 6 (insecure above a limit)   %6d = %5.1f %%  (paper: 59.9 %%)\n",
		o.Item6, compliance.Pct(o.Item6, o.Validators))
	fmt.Fprintf(w, "  Item 8 (SERVFAIL above a limit)   %6d = %5.1f %%  (paper: 18.4 %%)\n",
		o.Item8, compliance.Pct(o.Item8, o.Validators))
	fmt.Fprintln(w, "  insecure limits observed (paper: 150 dominant, 100 common, 50 = 150/12.5):")
	printHist(w, o.InsecureLimits)
	fmt.Fprintln(w, "  SERVFAIL start points observed (paper: mostly 151; 418 resolvers at 1; 92 at 101):")
	printHist(w, o.ServfailFroms)
	fmt.Fprintf(w, "  Item 7 violations                 %6d = %5.2f %%  (paper: 0.2 %%)\n",
		o.Item7Violations, compliance.Pct(o.Item7Violations, o.Validators))
	fmt.Fprintf(w, "  three-phase (Item 12 gap)         %6d = %5.1f %%  (paper: 4.3 %%)\n",
		o.ThreePhase, compliance.Pct(o.ThreePhase, o.Validators))
	limited := o.Item6 + o.Item8
	fmt.Fprintf(w, "  EDE attached (any code)           %6d = %5.1f %% of limit-implementing  (paper: <18 %% with code 27)\n",
		o.EDEAny, compliance.Pct(o.EDEAny, limited))
	fmt.Fprintf(w, "  EDE INFO-CODE 27 specifically     %6d = %5.1f %%\n",
		o.EDE27, compliance.Pct(o.EDE27, limited))
	fmt.Fprintf(w, "  RA echoed (broken forwarders)     %6d\n\n", o.EchoRA)
}

func printHist(w io.Writer, h map[int]int) {
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "    limit %4d: %6d resolvers\n", k, h[k])
	}
}
