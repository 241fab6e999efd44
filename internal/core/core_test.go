package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/compliance"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/respop"
	"repro/internal/scanner"
)

// TestSurveyEndToEnd runs the full §4.1 pipeline at a small scale and
// checks the §5.1 shapes against the paper with generous tolerances
// (the universe is sampled, so small-n noise is expected).
func TestSurveyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end survey is slow")
	}
	cfg := SurveyConfig{Registered: 4000, Seed: 1}
	report, err := RunSurvey(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTruth(t, cfg, report)
	if report.ScanErrors > 0 {
		t.Fatalf("%d scan errors", report.ScanErrors)
	}
	agg := report.Agg
	if agg.Total != 4000 {
		t.Fatalf("scanned %d domains", agg.Total)
	}
	// DNSSEC-enabled ≈ 8.8 %.
	dnssecPct := compliance.Pct(agg.DNSSECEnabled, agg.Total)
	if dnssecPct < 6 || dnssecPct > 12 {
		t.Errorf("DNSSEC-enabled %.1f %%, paper 8.8 %%", dnssecPct)
	}
	// NSEC3-enabled ≈ 58.9 % of DNSSEC-enabled.
	nsec3Pct := compliance.Pct(agg.NSEC3Enabled, agg.DNSSECEnabled)
	if nsec3Pct < 45 || nsec3Pct > 72 {
		t.Errorf("NSEC3 share %.1f %%, paper 58.9 %%", nsec3Pct)
	}
	// Item 2 (zero iterations) ≈ 12.2 % of NSEC3-enabled — i.e. 87.8 %
	// non-compliant, the headline result.
	zeroPct := compliance.Pct(agg.Item2OK, agg.NSEC3Enabled)
	if zeroPct < 6 || zeroPct > 20 {
		t.Errorf("zero-iteration share %.1f %%, paper 12.2 %%", zeroPct)
	}
	// Item 3 (no salt) ≈ 8.6 %.
	noSaltPct := compliance.Pct(agg.Item3OK, agg.NSEC3Enabled)
	if noSaltPct < 4 || noSaltPct > 16 {
		t.Errorf("no-salt share %.1f %%, paper 8.6 %%", noSaltPct)
	}
	// Figure 1 shape: ≥99 % of NSEC3-enabled domains at ≤25 iterations,
	// observed maximum 500 (injected specimens survive any scale).
	if report.IterCDF.At(25) < 0.98 {
		t.Errorf("CDF(25) = %.4f, paper 0.999", report.IterCDF.At(25))
	}
	if report.IterCDF.Max() != 500 {
		t.Errorf("max iterations %d, paper 500", report.IterCDF.Max())
	}
	if report.SaltCDF.Max() != 160 {
		t.Errorf("max salt %d, paper 160", report.SaltCDF.Max())
	}
	if report.SaltCDF.At(10) < 0.90 {
		t.Errorf("salt CDF(10) = %.4f, paper 0.972", report.SaltCDF.At(10))
	}
	// Opt-out ≈ 6.4 %.
	optPct := compliance.Pct(agg.OptOut, agg.NSEC3Enabled)
	if optPct < 2 || optPct > 12 {
		t.Errorf("opt-out share %.1f %%, paper 6.4 %%", optPct)
	}
	// Table 2: the largest operator is Squarespace at ≈39.4 %.
	rows := report.Operators.Top(10)
	if len(rows) < 10 {
		t.Fatalf("only %d operator rows", len(rows))
	}
	if rows[0].Operator != "squarespace-dns.com" {
		t.Errorf("top operator %s, paper Squarespace", rows[0].Operator)
	}
	if rows[0].Share < 30 || rows[0].Share > 50 {
		t.Errorf("top operator share %.1f %%, paper 39.4 %%", rows[0].Share)
	}
	// TLD registry scanned end-to-end: exact §5.1 registry numbers.
	if report.TLDs.Total != population.TotalTLDs {
		t.Fatalf("scanned %d TLDs", report.TLDs.Total)
	}
	if report.TLDs.DNSSECEnabled != population.DNSSECTLDs {
		t.Errorf("TLD DNSSEC %d, paper 1354", report.TLDs.DNSSECEnabled)
	}
	if report.TLDs.NSEC3Enabled != population.NSEC3TLDs {
		t.Errorf("TLD NSEC3 %d, paper 1302", report.TLDs.NSEC3Enabled)
	}
	if report.TLDs.Item2OK != population.ZeroIterTLDs {
		t.Errorf("TLD zero-iteration %d, paper 688", report.TLDs.Item2OK)
	}
	if got := report.TLDs.IterationsHist[100]; got != population.IdentityDigital {
		t.Errorf("TLDs at 100 iterations %d, paper 447", got)
	}
	// Registered domains under Identity Digital TLDs exist (the
	// ≥12.6 M lower-bound estimate).
	if report.DomainsUnderIDTLDs == 0 {
		t.Error("no domains under Identity Digital TLDs")
	}
}

// renderSurvey renders what the paper's figures and tables are built
// from: both CDFs and the operator table.
func renderSurvey(r *SurveyReport) string {
	var sb strings.Builder
	analysis.RenderCDF(&sb, "iterations", r.IterCDF, []int{0, 1, 5, 10, 25, 50, 100, 150, 500})
	analysis.RenderCDF(&sb, "salt", r.SaltCDF, []int{0, 1, 4, 8, 10, 40, 45, 160})
	analysis.RenderOperatorTable(&sb, r.Operators.Top(10))
	return sb.String()
}

// TestSurveyShardEquivalence is the golden test of the streaming
// refactor: RunSurvey with Shards=1 and Shards=3 at the same seed must
// produce byte-identical aggregates — Figure 1 CDFs, Table 2 operator
// stats, and the §5.1 TLD numbers all included — and that report must
// be the committed one (testdata/survey-seed<N>.golden), so a change
// that moves every survey report the same way fails here too.
func TestSurveyShardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end survey is slow")
	}
	run := func(seed uint64, shards int) *SurveyReport {
		t.Helper()
		cfg := SurveyConfig{Registered: 900, Seed: seed, Shards: shards}
		report, err := RunSurvey(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkTruth(t, cfg, report)
		return report
	}
	for _, seed := range goldenSeeds {
		whole := run(seed, 1)
		sharded := run(seed, 3)
		if !reflect.DeepEqual(whole, sharded) {
			t.Errorf("seed %d: sharded report differs from unsharded:\nwhole:   %+v\nsharded: %+v", seed, whole, sharded)
		}
		// Belt and braces: the rendered deliverables must match byte
		// for byte.
		if a, b := renderSurvey(whole), renderSurvey(sharded); a != b {
			t.Errorf("seed %d: rendered outputs differ:\n--- shards=1\n%s\n--- shards=3\n%s", seed, a, b)
		}
		if whole.Agg.Total != 900 || sharded.Agg.Total != 900 {
			t.Fatalf("seed %d: totals %d/%d, want 900", seed, whole.Agg.Total, sharded.Agg.Total)
		}
		checkGolden(t, fmt.Sprintf("survey-seed%d", seed), whole, renderSurvey(whole))
	}
}

// TestSurveyIndependentOfWorkers: the scanner's concurrency is a
// throttle, not an input. One worker and 64 scan the same universe
// into the same report, and that report is the committed one.
func TestSurveyIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end survey is slow")
	}
	var reports []*SurveyReport
	for _, workers := range []int{1, 64} {
		cfg := SurveyConfig{Registered: 900, Seed: 1, Workers: workers}
		report, err := RunSurvey(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkTruth(t, cfg, report)
		reports = append(reports, report)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("Workers 1 and 64 differ:\n1:  %+v\n64: %+v", reports[0], reports[1])
	}
	checkGolden(t, "survey-seed1", reports[0], renderSurvey(reports[0]))
}

// TestSurveyMetricsShardMerge is the observability counterpart of
// TestSurveyShardEquivalence: the order-independent counters must be
// identical between an unsharded and a sharded run of the same
// universe, and the sign cache must show reuse across shards.
func TestSurveyMetricsShardMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end survey is slow")
	}
	run := func(shards int) *obs.Registry {
		t.Helper()
		reg := obs.NewRegistry()
		cfg := SurveyConfig{Registered: 600, Seed: 5, Shards: shards, Obs: reg}
		report, err := RunSurvey(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkTruth(t, cfg, report)
		if report.ScanErrors > 0 {
			t.Fatalf("shards=%d: %d scan errors", shards, report.ScanErrors)
		}
		return reg
	}
	whole := run(1)
	sharded := run(3)
	counter := func(reg *obs.Registry, name string) uint64 {
		return reg.Counter(name, "").Value()
	}
	for _, name := range []string{
		"survey_domains_scanned_total",
		"survey_nsec3_iteration_work_total",
		"scanner_queries_total",
	} {
		w, s := counter(whole, name), counter(sharded, name)
		if w != s {
			t.Errorf("%s: shards=1 %d vs shards=3 %d", name, w, s)
		}
		if w == 0 {
			t.Errorf("%s never incremented", name)
		}
	}
	if got := counter(whole, "survey_domains_scanned_total"); got != 600 {
		t.Errorf("survey_domains_scanned_total %d, want 600", got)
	}
	// A single deployment signs everything fresh; three deployments
	// reuse the shard-independent zones (root, operator infra, empty
	// TLDs) from the sign cache.
	if counter(whole, "survey_zones_reused_total") != 0 {
		t.Error("unsharded run should not reuse zones")
	}
	if counter(sharded, "survey_zones_reused_total") == 0 {
		t.Error("sharded run never hit the sign cache")
	}
	// Upstream work happened and the throughput gauge moved.
	if counter(whole, "resolver_upstream_queries_total") == 0 {
		t.Error("resolver_upstream_queries_total never incremented")
	}
	if whole.Gauge("survey_domains_per_second", "").Value() <= 0 {
		t.Error("survey_domains_per_second gauge not set")
	}
}

// TestSurveyTraceSpans checks the tracer emits one generate/deploy/
// scan/transfer/merge span per shard, and shard 0's tld_scan, over the
// scanner's NDJSON encoder. tld_scan and transfer nest inside scan.
func TestSurveyTraceSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end survey is slow")
	}
	var buf strings.Builder
	enc := scanner.NewEncoder(&buf)
	cfg := SurveyConfig{Registered: 300, Seed: 5, Shards: 2, Trace: obs.NewTracer(enc)}
	report, err := RunSurvey(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTruth(t, cfg, report)
	type span struct {
		Span  string `json:"span"`
		Shard int    `json:"shard"`
		Start int64  `json:"start_unix_ns"`
		Dur   int64  `json:"duration_ns"`
	}
	got := map[string]int{}
	scans := map[int]span{}
	var nested []span
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var sp span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		got[sp.Span]++
		switch sp.Span {
		case "scan":
			scans[sp.Shard] = sp
		case "tld_scan", "transfer":
			nested = append(nested, sp)
		}
	}
	// generate runs once per cursor call including the exhausted one.
	if got["generate"] < 2 || got["deploy"] != 2 || got["scan"] != 2 || got["merge"] != 2 ||
		got["tld_scan"] != 1 || got["transfer"] != 2 {
		t.Errorf("span counts: %v", got)
	}
	for _, sp := range nested {
		outer, ok := scans[sp.Shard]
		if !ok || sp.Start < outer.Start || sp.Start+sp.Dur > outer.Start+outer.Dur {
			t.Errorf("shard %d %s span [%d, +%d] outside its scan span %+v", sp.Shard, sp.Span, sp.Start, sp.Dur, outer)
		}
	}
}

// TestResolverStudyEndToEnd runs the §4.2 pipeline with a scaled fleet
// and checks the §5.2 shapes.
func TestResolverStudyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end resolver study is slow")
	}
	report, err := RunResolverStudy(context.Background(), ResolverStudyConfig{
		ScaleDen: 1000, // ≈105 open IPv4 + 50/50/50
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Overall.Probed == 0 || report.Overall.Validators == 0 {
		t.Fatalf("probed=%d validators=%d", report.Overall.Probed, report.Overall.Validators)
	}
	// All deployed resolvers are validators or non-validating per the
	// mix; every policy in the mix validates except NonValidating
	// (absent from quadrant mixes), so expect ≈100 % validators here.
	if report.Overall.Validators < report.Overall.Probed*9/10 {
		t.Errorf("validators %d of %d", report.Overall.Validators, report.Overall.Probed)
	}
	v := report.Overall.Validators
	item6 := compliance.Pct(report.Overall.Item6, v)
	if item6 < 40 || item6 > 85 {
		t.Errorf("Item 6 share %.1f %%, paper 59.9 %%", item6)
	}
	item8 := compliance.Pct(report.Overall.Item8, v)
	if item8 < 8 || item8 > 35 {
		t.Errorf("Item 8 share %.1f %%, paper 18.4 %%", item8)
	}
	// The dominant insecure limit is 150; 100 (Google) is common;
	// 50 (patched) much rarer than 150.
	if report.Overall.InsecureLimits[150] == 0 {
		t.Error("no validators with the 150 limit")
	}
	if report.Overall.InsecureLimits[100] == 0 {
		t.Error("no validators with the 100 limit (Google-like)")
	}
	if report.Overall.InsecureLimits[50] >= report.Overall.InsecureLimits[150] {
		t.Errorf("50-limit (%d) should be much rarer than 150-limit (%d)",
			report.Overall.InsecureLimits[50], report.Overall.InsecureLimits[150])
	}
	// SERVFAILs mostly start at 151.
	if report.Overall.ServfailFroms[151] == 0 {
		t.Error("no SERVFAIL-from-151 validators")
	}
	// Figure 3, open IPv4: at low N nearly all validators return
	// NXDOMAIN with AD; above 150 the AD share collapses and SERVFAIL
	// rises.
	s := report.Series[respop.OpenIPv4]
	if s == nil || len(s.Points()) == 0 {
		t.Fatal("no open IPv4 series")
	}
	p1, _ := s.At(1)
	if p1.ADNXDOMAIN < 60 {
		t.Errorf("it-1 AD+NXDOMAIN %.1f %%, expect high", p1.ADNXDOMAIN)
	}
	p150, _ := s.At(150)
	p151, _ := s.At(151)
	if !(p151.ADNXDOMAIN < p150.ADNXDOMAIN) {
		t.Errorf("AD share did not drop at 151: %.1f -> %.1f", p150.ADNXDOMAIN, p151.ADNXDOMAIN)
	}
	if !(p151.SERVFAIL > p150.SERVFAIL) {
		t.Errorf("SERVFAIL did not rise at 151: %.1f -> %.1f", p150.SERVFAIL, p151.SERVFAIL)
	}
	p500, _ := s.At(500)
	if p500.ADNXDOMAIN > 10 {
		t.Errorf("it-500 AD share %.1f %%, expect near zero", p500.ADNXDOMAIN)
	}
	// Google-like drop at 101 exists in open IPv4.
	p100, _ := s.At(100)
	p101, _ := s.At(101)
	if !(p101.ADNXDOMAIN < p100.ADNXDOMAIN) {
		t.Errorf("AD share did not drop at 101: %.1f -> %.1f", p100.ADNXDOMAIN, p101.ADNXDOMAIN)
	}
	// Closed quadrants exist and have validators.
	for _, q := range []respop.Quadrant{respop.ClosedIPv4, respop.ClosedIPv6} {
		if report.Series[q] == nil || report.Series[q].Validators == 0 {
			t.Errorf("quadrant %s empty", q)
		}
	}
	// Item 7 violations and three-phase boxes are rare but present.
	if report.Overall.Item7Violations == 0 {
		t.Error("no Item 7 violators in fleet")
	}
	if report.Overall.ThreePhase == 0 {
		t.Error("no three-phase boxes in fleet")
	}
	// Closed-resolver transcripts carry no EDE (Atlas strips them), so
	// EDE stats come from open resolvers only; some must exist.
	if report.Overall.EDE27 == 0 {
		t.Error("no EDE 27 observed among open validators")
	}
}

// TestResolverStudyCancelled: under a cancelled context the shard's
// probe pass records ctx.Err() for every probe not yet started, so the
// study drains and returns instead of leaving probes parked.
func TestResolverStudyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	var report *ResolverStudyReport
	var err error
	go func() {
		defer close(done)
		report, err = RunResolverStudy(ctx, ResolverStudyConfig{
			ScaleDen: 2000,
			Seed:     1,
			Workers:  2,
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("RunResolverStudy did not return under a cancelled context")
	}
	if err != nil {
		return // an error return is a valid way to honor cancellation
	}
	if report == nil {
		t.Fatal("nil report without error")
	}
}

// renderResolverStudy renders the Figure 3 subfigures a report is
// printed as, quadrant by quadrant.
func renderResolverStudy(r *ResolverStudyReport) string {
	var sb strings.Builder
	for _, q := range respop.Quadrants() {
		if s := r.Series[q]; s != nil {
			analysis.RenderRCodeSeries(&sb, s)
			analysis.SparkRender(&sb, s)
		}
	}
	return sb.String()
}

// TestResolverStudyReportPinned pins the resolver study's report to the
// committed one (testdata/resolverstudy-seed<N>.golden): its JSON and
// rendered subfigures at ScaleDen 2000, unsharded and in three shards,
// at seeds 1 and 7. All four runs share one report on purpose. At this
// scale the respop planner's largest-remainder profile counts are
// exact, so the seed only permutes which fleet index gets which
// profile, and every report field is a sum or a histogram of sums. Do
// not "fix" the equality: a seed that changed the report here would be
// the bug.
func TestResolverStudyReportPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end resolver study is slow")
	}
	var first *ResolverStudyReport
	for _, seed := range goldenSeeds {
		for _, shards := range []int{1, 3} {
			report, err := RunResolverStudy(context.Background(), ResolverStudyConfig{
				ScaleDen: 2000,
				Seed:     seed,
				Shards:   shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = report
			} else if !reflect.DeepEqual(report, first) {
				t.Errorf("seed %d, shards %d: report differs from seed %d, shards 1", seed, shards, goldenSeeds[0])
			}
			checkGolden(t, fmt.Sprintf("resolverstudy-seed%d", seed), report, renderResolverStudy(report))
		}
	}
}

// TestResolverStudyHashWork pins the SHA-1 work the resolverstudy
// benchmark's configuration (ScaleDen 1000, four shards, seed 1) makes
// its validators do: resolver_nsec3_hash_work_total, one count per
// name hashed plus one per additional iteration. The validators hash
// every candidate closest encloser, next-closer name and wildcard on
// every proof, with no memo (package nsec3's "What the chain indexes"),
// so a change that makes the study cheaper by hashing less moves this
// number, and one that only takes other work off the proof path does
// not. Beside it are the signature checks the validators ask of the
// study's VerifyMemo and the queries they send upstream: both are fixed
// by what the validators are asked, so a rewrite of the checking path
// must make the same checks. Memo hits depend on scheduling and are not
// pinned.
func TestResolverStudyHashWork(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end resolver study is slow")
	}
	reg := obs.NewRegistry()
	if _, err := RunResolverStudy(context.Background(), ResolverStudyConfig{
		ScaleDen: 1000,
		Shards:   4,
		Seed:     1,
		Obs:      reg,
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"resolver_nsec3_hash_work_total", 1_002_013},
		{"resolver_sig_verifications_total", 64_916},
		{"resolver_upstream_queries_total", 40_035},
	} {
		if got := reg.Counter(c.name, "").Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestResolverStudyMemoSplit pins how the resolverstudy benchmark's
// configuration meets the network's response memo: how many responses
// were decoded afresh and how many were handed a shared decoding, under
// the ID it was decoded with or under a new one. One probe at a time per
// shard, so which responses the memo's tables hold when each arrives
// does not depend on scheduling. A change that sends more responses
// through Unpack, or takes them off it, moves these numbers.
func TestResolverStudyMemoSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end resolver study is slow")
	}
	reg := obs.NewRegistry()
	if _, err := RunResolverStudy(context.Background(), ResolverStudyConfig{
		ScaleDen: 1000,
		Shards:   4,
		Seed:     1,
		Workers:  1,
		Obs:      reg,
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"netsim_response_memo_miss_total", 14_100},
		{"netsim_response_memo_same_id_total", 25_935},
		{"netsim_response_memo_new_id_total", 0},
	} {
		if got := reg.Counter(c.name, "").Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestResolverStudyShardEquivalence is the Figure 3 twin of
// TestSurveyShardEquivalence: the study with Shards=1 and Shards=3 at
// the same seed must produce byte-identical reports, the
// order-independent obs counters must match, and — because transcripts
// are collected by fleet index, not goroutine completion order — a
// repeated sharded run must reproduce its report exactly.
func TestResolverStudyShardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end resolver study is slow")
	}
	run := func(shards int) (*ResolverStudyReport, *obs.Registry) {
		t.Helper()
		reg := obs.NewRegistry()
		report, err := RunResolverStudy(context.Background(), ResolverStudyConfig{
			ScaleDen: 2000, // 52 + 50 + 50 + 50 resolvers
			Seed:     5,
			Shards:   shards,
			Obs:      reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return report, reg
	}
	whole, wreg := run(1)
	sharded, sreg := run(3)
	if !reflect.DeepEqual(whole, sharded) {
		t.Errorf("sharded report differs from unsharded:\nwhole:   %+v\nsharded: %+v", whole, sharded)
	}
	// Belt and braces: the rendered deliverables must match byte for
	// byte (this is what the Figure 3 subfigures are printed from).
	if a, b := renderResolverStudy(whole), renderResolverStudy(sharded); a != b {
		t.Errorf("rendered outputs differ:\n--- shards=1\n%s\n--- shards=3\n%s", a, b)
	}
	if whole.ProbeFailures != 0 || sharded.ProbeFailures != 0 {
		t.Errorf("probe failures %d/%d, want 0", whole.ProbeFailures, sharded.ProbeFailures)
	}

	// Observability counterpart: order-independent counters equal.
	counter := func(reg *obs.Registry, name string) uint64 {
		return reg.Counter(name, "").Value()
	}
	for _, name := range []string{
		"resolverstudy_probed_open_ipv4_total",
		"resolverstudy_probed_open_ipv6_total",
		"resolverstudy_probed_closed_ipv4_total",
		"resolverstudy_probed_closed_ipv6_total",
		"resolverstudy_zones_signed_total",
		// The fleet counts into the study's registry: the SHA-1 work a
		// validator spends is fixed by its profile and its probes, not
		// by which world it was deployed in.
		"resolver_nsec3_hash_work_total",
	} {
		w, s := counter(wreg, name), counter(sreg, name)
		if w != s {
			t.Errorf("%s: shards=1 %d vs shards=3 %d", name, w, s)
		}
		if w == 0 {
			t.Errorf("%s never incremented", name)
		}
	}
	if got := counter(wreg, "resolverstudy_probe_failures_total"); got != 0 {
		t.Errorf("resolverstudy_probe_failures_total %d, want 0", got)
	}
	if got := counter(sreg, "resolverstudy_shards_completed_total"); got != 3 {
		t.Errorf("resolverstudy_shards_completed_total %d, want 3", got)
	}
	// A single world signs everything fresh; three shard worlds reuse
	// the shared testbed zones from the sign cache.
	if counter(wreg, "resolverstudy_zones_reused_total") != 0 {
		t.Error("unsharded study should not reuse zones")
	}
	if counter(sreg, "resolverstudy_zones_reused_total") == 0 {
		t.Error("sharded study never hit the sign cache")
	}
	// Validators cache zone cuts, so most of their walks start below the
	// root. Checked as non-zero only: the counter is kept out of every
	// equality list because, on a resolver shared by concurrent clients,
	// hits depend on worker interleaving.
	for _, reg := range []*obs.Registry{wreg, sreg} {
		if counter(reg, "resolver_delegation_cache_hits_total") == 0 {
			t.Error("no validator ever started a walk at a cached cut")
		}
	}
	// The verification memo is shared by the whole fleet, across shards:
	// what is left to verify is a small multiple of the distinct
	// signatures in the testbed. Neither counter joins the equality list
	// above. Hits are scheduling-dependent (two workers may both miss one
	// triple). Requests are fixed by the fleet for a given set of zone
	// keys, and a KSK/ZSK key-tag collision in a zone adds a doomed check
	// per RRset there.
	for _, reg := range []*obs.Registry{wreg, sreg} {
		requests := counter(reg, "resolver_sig_verifications_total")
		hits := counter(reg, "resolver_sig_verify_memo_hits_total")
		if hits == 0 || requests-hits > requests/10 {
			t.Errorf("%d signature checks requested, %d verified, %d answered from the memo: want verified far below requested",
				requests, requests-hits, hits)
		}
	}

	// Determinism pin for the ordering fix: the same sharded run twice
	// is bit-for-bit reproducible.
	again, _ := run(3)
	if !reflect.DeepEqual(sharded, again) {
		t.Error("repeated sharded run differs — transcript ordering is nondeterministic")
	}
}
