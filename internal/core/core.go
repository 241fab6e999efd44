// Package core ties the substrates into the paper's two experiments and
// is the library's main entry point:
//
//   - RunSurvey (§4.1/§5.1): generate a calibrated synthetic domain
//     universe, materialize it into real signed zones served on a
//     simulated Internet, scan every domain through a recursive
//     resolver with a zdns-style scanner, and aggregate RFC 9276
//     compliance — Figure 1, Table 2, and the TLD statistics. The
//     pipeline streams: the universe is generated, deployed, scanned,
//     and merged one shard at a time, so peak memory is bounded by the
//     shard size rather than the universe size, and the shard count
//     never changes the results.
//
//   - RunTrancoStudy (§5.1, Figure 2): the same pipeline over a
//     Tranco-style ranked universe.
//
//   - RunResolverStudy (§4.2/§5.2): stand up rfc9276-in-the-wild.com
//     with its 49 crafted subdomains, deploy a resolver fleet modeled
//     on the measured vendor mix, probe every resolver (open ones
//     directly, closed ones through a simulated RIPE Atlas), classify
//     Items 6–12 behaviour, and build the Figure 3 series.
package core

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/compliance"
	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/scanner"
)

// Default simulation clock: signatures valid around this instant.
const (
	DefaultInception  = 1709251200 // 2024-03-01, the paper's scan month
	DefaultExpiration = 1717200000 // 2024-06-01
	DefaultNow        = 1712000000 // 2024-04-01, inside the window
)

// SurveyConfig sizes the §4.1 domain measurement.
type SurveyConfig struct {
	// Registered is the number of registered domains (paper: 302 M;
	// default 1:10,000 scale = 30,200).
	Registered int
	// Seed drives every random choice.
	Seed uint64
	// Workers is the scanner concurrency.
	Workers int
	// QPS rate-limits the scanner (0 = unlimited; the paper used
	// 14.7 K qps against 1.1.1.1).
	QPS int
	// Shards splits the run into bounded generate→deploy→scan→merge
	// batches: peak memory is O(Registered/Shards) instead of
	// O(Registered). The shard decomposition never changes the report
	// — every domain is generated from its own index-derived stream
	// (default 1).
	Shards int
	// Signing selects when a shard's zones are signed: lazily on first
	// query (the default — deployment registers sign thunks and the
	// scanner's traffic materializes only what it touches) or eagerly
	// at deploy time. The report is identical either way.
	Signing SigningMode
	// Obs, when set, receives pipeline metrics: survey progress
	// counters plus the scanner's, resolver's, and network's own
	// instrumentation. The registry never feeds back into the report,
	// so results are identical with or without it.
	Obs *obs.Registry
	// Trace, when set, receives one NDJSON span per pipeline phase
	// per shard (generate, deploy, scan, merge).
	Trace *obs.Tracer
}

// SurveyReport is the evaluated §5.1 output. Every field is a merged
// aggregate; the per-shard universes are discarded as the pipeline
// streams past them.
type SurveyReport struct {
	// Agg summarizes the scanned domain classifications.
	Agg *compliance.Aggregate
	// IterCDF and SaltCDF feed Figure 1.
	IterCDF, SaltCDF *analysis.CDF
	// Operators feeds Table 2.
	Operators *analysis.OperatorStats
	// TLDs summarizes the TLD registry (scanned end-to-end).
	TLDs compliance.Aggregate
	// TLDAgg is the registry-side aggregate (opt-out, Identity
	// Digital cohort, open zone data).
	TLDAgg population.TLDAggregate
	// DomainsUnderIDTLDs counts registered domains under Identity
	// Digital TLDs (the paper's ≥12.6 M lower bound).
	DomainsUnderIDTLDs int
	// ScanErrors counts domains whose scan failed.
	ScanErrors int
	// TLDZonesTransferred counts Identity Digital TLD zones obtained
	// via AXFR (vs. estimated from the registered-domain list).
	TLDZonesTransferred int
}

// surveySink is one scanner worker's private accumulator. Workers
// classify into their own sink lock-free; the shard loop merges the
// sinks once the scan drains.
type surveySink struct {
	agg        *compliance.Aggregate
	ops        *analysis.OperatorStats // nil for the TLD scan
	scanErrors int
	// mScanned / mIterWork are shared across sinks (atomic, nil-safe):
	// domains scanned and the Gruza et al. per-domain verification
	// cost 1+iterations — both order-independent totals.
	mScanned  *obs.Counter
	mIterWork *obs.Counter
}

// Consume implements scanner.Sink.
func (s *surveySink) Consume(r scanner.Result) {
	if r.Err != nil {
		s.scanErrors++
		return
	}
	s.mScanned.Inc()
	c := compliance.Classify(r.Facts)
	s.agg.Add(c)
	if c.NSEC3Enabled {
		s.mIterWork.Add(uint64(1 + c.Iterations))
	}
	if s.ops != nil && c.NSEC3Enabled {
		s.ops.Add(operatorKeys(r.Facts.NSHosts), c.Iterations, c.SaltLen)
	}
}

// RunSurvey executes the full domain-side experiment as a sharded
// stream: plan the shards, execute each one (generate, deploy onto its
// own simulated network, scan), and merge its outcome into the report
// before the next shard is touched — the survey instantiation
// (engine.go) driven through the study engine's Run (study.go).
func RunSurvey(ctx context.Context, cfg SurveyConfig) (*SurveyReport, error) {
	spec, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	return Run(ctx, spec, cfg.Obs, cfg.Trace)
}

// operatorKeys maps NS host names to operator keys: the registered
// domain (last two labels) of each host, the paper's §5.1 aggregation.
func operatorKeys(hosts []dnswire.Name) []string {
	out := make([]string, 0, len(hosts))
	for _, h := range hosts {
		labels := h.Labels()
		if len(labels) >= 2 {
			out = append(out, labels[len(labels)-2]+"."+labels[len(labels)-1])
		} else {
			out = append(out, h.String())
		}
	}
	return out
}
