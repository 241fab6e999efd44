package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/obs"
)

// TestSurveyEagerLazyEquivalence is the golden guarantee of lazy
// signing: a sharded survey produces a byte-identical SurveyReport —
// and identical semantic obs counters — whether every zone is signed
// at deploy time or on the first query that reaches it. Signing is
// deterministic per zone (keys and records are fixed at build time),
// so order of arrival cannot leak into the results.
func TestSurveyEagerLazyEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end survey is slow")
	}
	run := func(mode SigningMode) (*SurveyReport, *obs.Registry) {
		t.Helper()
		reg := obs.NewRegistry()
		cfg := SurveyConfig{Registered: 600, Seed: 5, Shards: 3, Signing: mode, Obs: reg}
		report, err := RunSurvey(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkTruth(t, cfg, report)
		return report, reg
	}
	eager, eagerReg := run(SigningEager)
	lazy, lazyReg := run(SigningLazy)
	if !reflect.DeepEqual(eager, lazy) {
		t.Errorf("lazy report differs from eager:\neager: %+v\nlazy:  %+v", eager, lazy)
	}
	// The rendered deliverables must match byte for byte — they are
	// what the paper's figures and tables are built from.
	render := func(r *SurveyReport) string {
		var sb strings.Builder
		analysis.RenderCDF(&sb, "iterations", r.IterCDF, []int{0, 1, 5, 10, 25, 50, 100, 150, 500})
		analysis.RenderCDF(&sb, "salt", r.SaltCDF, []int{0, 1, 4, 8, 10, 40, 45, 160})
		analysis.RenderOperatorTable(&sb, r.Operators.Top(10))
		return sb.String()
	}
	if a, b := render(eager), render(lazy); a != b {
		t.Errorf("rendered outputs differ:\n--- eager\n%s\n--- lazy\n%s", a, b)
	}

	counter := func(reg *obs.Registry, name string) uint64 {
		return reg.Counter(name, "").Value()
	}
	// Semantic counters — what was scanned and what it cost — are
	// equal across modes. (Signing-work counters legitimately differ:
	// that difference is the point of lazy signing.)
	for _, name := range []string{
		"survey_domains_scanned_total",
		"survey_nsec3_iteration_work_total",
		"scanner_queries_total",
	} {
		e, l := counter(eagerReg, name), counter(lazyReg, name)
		if e != l {
			t.Errorf("%s: eager %d vs lazy %d", name, e, l)
		}
		if e == 0 {
			t.Errorf("%s never incremented", name)
		}
	}

	// The lazy-only instrumentation moved in the lazy run and stayed
	// silent in the eager one.
	if got := counter(lazyReg, "survey_zones_signed_lazily_total"); got == 0 {
		t.Error("lazy run: survey_zones_signed_lazily_total never incremented")
	}
	if got := counter(eagerReg, "survey_zones_signed_lazily_total"); got != 0 {
		t.Errorf("eager run materialized %d zones lazily", got)
	}
	// Shards past the first skip the TLD scan, so most of their
	// 1,449-zone registry is never queried: the untouched counter is
	// where lazy signing's saved work becomes visible.
	if got := counter(lazyReg, "survey_zones_untouched_total"); got == 0 {
		t.Error("lazy run: survey_zones_untouched_total never incremented")
	}
	if got := counter(eagerReg, "survey_zones_untouched_total"); got != 0 {
		t.Errorf("eager run reported %d untouched zones", got)
	}
	// Sign-wait time was observed for every lazy materialization.
	if got := lazyReg.Histogram("authserver_sign_wait_ns", "", obs.NanosecondBuckets()).Count(); got == 0 {
		t.Error("lazy run: authserver_sign_wait_ns never observed")
	}
}

// TestSurveySignsWhatIsServed counts signatures on the benchmark's
// sharded survey: under lazy signing the RRSIGs made are those some
// answer carried, and made + deferred is what the zones the scan
// reached hold in all — every one of which was made before signatures
// became on-demand. About 0.74 of them are made: a domain zone holds
// nine RRSIGs and the scanner's questions touch five or six, but shard
// 0 also scans the TLD registry, and a small TLD zone asked the same
// questions serves nearly everything it holds (as does the root, whose
// every DS that scan fetches). The count moves by a handful between
// runs — which TLD denial records the scan resolver still has to ask
// for depends on worker interleaving — so the bound has room. An eager
// run defers nothing.
func TestSurveySignsWhatIsServed(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end survey is slow")
	}
	counters := func(mode SigningMode, registered int) (made, deferred, zones uint64) {
		t.Helper()
		reg := obs.NewRegistry()
		cfg := SurveyConfig{Registered: registered, Seed: 1, Shards: 4, Workers: 2, Signing: mode, Obs: reg}
		report, err := RunSurvey(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkTruth(t, cfg, report)
		c := func(name string) uint64 { return reg.Counter(name, "").Value() }
		return c("survey_rrsigs_signed_total"), c("survey_rrsigs_deferred_total"),
			c("survey_zones_signed_total") + c("survey_zones_reused_total")
	}
	made, deferred, zones := counters(SigningLazy, 12000)
	t.Logf("lazy: %d RRSIGs made, %d deferred, over %d zones", made, deferred, zones)
	if made == 0 || deferred == 0 {
		t.Fatalf("lazy run: %d RRSIGs made, %d deferred", made, deferred)
	}
	if ratio := float64(made) / float64(made+deferred); ratio > 0.76 {
		t.Errorf("lazy run made %d of %d RRSIGs (%.3f), want at most 0.76", made, made+deferred, ratio)
	}
	if made, deferred, _ := counters(SigningEager, 600); made == 0 || deferred != 0 {
		t.Errorf("eager run: %d RRSIGs made, %d deferred, want every one made", made, deferred)
	}
}
