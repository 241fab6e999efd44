package core

import (
	"context"
	"sort"

	"repro/internal/analysis"
	"repro/internal/compliance"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/population"
	"repro/internal/scanner"
)

// TrancoConfig sizes the Figure 2 popularity study.
type TrancoConfig struct {
	// ListSize is the ranked list length (paper: 1 M; default 1:100 =
	// 10,000).
	ListSize int
	Seed     uint64
	Workers  int
}

// TrancoReport is the Figure 2 output: how popular domains fare
// against Items 2 and 3.
type TrancoReport struct {
	ListSize      int
	DNSSECEnabled int
	NSEC3Enabled  int
	ZeroIter      int // Item 2 compliant among NSEC3-enabled
	NoSalt        int // Item 3 compliant
	Both          int
	// NSEC3Ranks are the popularity ranks of NSEC3-enabled domains —
	// Figure 2's x-axis (the paper's CDF rises uniformly). Sorted
	// ascending, so the slice is deterministic across runs.
	NSEC3Ranks []int
	// RankCDF is the CDF over those ranks.
	RankCDF *analysis.CDF
	// ScanErrors counts failed scans.
	ScanErrors int
}

// RunTrancoStudy deploys a ranked universe whose marginals match the
// paper's Tranco measurements and scans it end-to-end.
func RunTrancoStudy(ctx context.Context, cfg TrancoConfig) (*TrancoReport, error) {
	if cfg.ListSize == 0 {
		cfg.ListSize = 10000
	}
	if cfg.Workers == 0 {
		cfg.Workers = 64
	}
	// A dedicated universe where every domain is ranked: the ranked
	// marginals then drive all parameters.
	u, err := population.Generate(population.Config{
		Registered: cfg.ListSize,
		Seed:       cfg.Seed + 0x7714,
		RankedSize: cfg.ListSize,
	})
	if err != nil {
		return nil, err
	}
	// Lazy signing: the ranked scan touches every domain zone but only
	// the TLDs those domains live under, so the rest of the 1,449-zone
	// registry never signs.
	dep, err := population.Deploy(u, netsim.NewNetwork(cfg.Seed+2), DefaultInception, DefaultExpiration,
		population.WithLazySigning())
	if err != nil {
		return nil, err
	}
	resolverAddr := installScanResolver(dep.Hierarchy, nil, nil)
	sc := scanner.New(scanner.Config{
		Exchanger: dep.Hierarchy.Net,
		Resolver:  resolverAddr,
		Workers:   cfg.Workers,
		Seed:      cfg.Seed + 3,
	})

	defer sc.Close()

	rankByName := make(map[dnswire.Name]int, len(u.Domains))
	names := make([]dnswire.Name, len(u.Domains))
	for i := range u.Domains {
		names[i] = u.Domains[i].Name
		rankByName[u.Domains[i].Name] = u.Domains[i].Rank
	}

	// Per-worker sinks: each worker classifies into its own counters,
	// merged after the scan drains — the same lock-free shape as
	// RunSurvey.
	var sinks []*trancoSink
	err = sc.ScanAll(ctx, scanner.Names(names), func(int) scanner.Sink {
		s := &trancoSink{ranks: rankByName}
		sinks = append(sinks, s)
		return s
	})
	if err != nil {
		return nil, err
	}
	report := &TrancoReport{ListSize: cfg.ListSize}
	for _, s := range sinks {
		report.DNSSECEnabled += s.dnssec
		report.NSEC3Enabled += s.nsec3
		report.ZeroIter += s.zeroIter
		report.NoSalt += s.noSalt
		report.Both += s.both
		report.ScanErrors += s.scanErrors
		report.NSEC3Ranks = append(report.NSEC3Ranks, s.nsec3Ranks...)
	}
	sort.Ints(report.NSEC3Ranks)
	rankHist := make(map[int]int, len(report.NSEC3Ranks))
	for _, r := range report.NSEC3Ranks {
		rankHist[r]++
	}
	report.RankCDF = analysis.CDFFromHist(rankHist)
	return report, nil
}

// trancoSink is one worker's private Figure 2 accumulator.
type trancoSink struct {
	ranks      map[dnswire.Name]int // read-only rank lookup, shared
	dnssec     int
	nsec3      int
	zeroIter   int
	noSalt     int
	both       int
	scanErrors int
	nsec3Ranks []int
}

// Consume implements scanner.Sink.
func (s *trancoSink) Consume(r scanner.Result) {
	if r.Err != nil {
		s.scanErrors++
		return
	}
	c := compliance.Classify(r.Facts)
	if c.DNSSECEnabled {
		s.dnssec++
	}
	if !c.NSEC3Enabled {
		return
	}
	s.nsec3++
	s.nsec3Ranks = append(s.nsec3Ranks, s.ranks[r.Facts.Domain])
	if c.Item2OK {
		s.zeroIter++
	}
	if c.Item3OK {
		s.noSalt++
	}
	if c.BothOK {
		s.both++
	}
}
