// Package repro's root-level benchmarks regenerate the cost side of
// every table and figure in "Zeros Are Heroes" plus the ablations
// called out in DESIGN.md §4:
//
//   - BenchmarkNSEC3HashIterations and BenchmarkCVE202350868ProofCost:
//     the per-iteration CPU cost that motivates RFC 9276 Item 2 and
//     that CVE-2023-50868 weaponizes (Gruza et al. measured up to 72×
//     resolver CPU).
//   - BenchmarkTable1RuleEvaluation: resolver-transcript classification
//     against the twelve guideline items.
//   - BenchmarkFig1DomainScan: the end-to-end §4.1 per-domain scan.
//   - BenchmarkFig2TrancoIntersect: rank-CDF construction.
//   - BenchmarkTable2OperatorAttribution: NS-record operator
//     aggregation.
//   - BenchmarkFig3ResolverProbe: one full 50-subdomain probe of a
//     validating resolver.
//   - BenchmarkAblation*: hash memoization, proof search strategy,
//     name compression, and the Item 7 policy-order trade-off.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/authserver"
	"repro/internal/compliance"
	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/nsec3"
	"repro/internal/population"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/scanner"
	"repro/internal/testbed"
	"repro/internal/zone"
)

// ---------------------------------------------------------------------
// CVE-2023-50868 cost: the iterated hash itself.

func BenchmarkNSEC3HashIterations(b *testing.B) {
	name := dnswire.MustParseName("some-random-subdomain.example.com")
	for _, iters := range []uint16{0, 1, 10, 50, 100, 150, 500, 2500} {
		b.Run(fmt.Sprintf("it-%d", iters), func(b *testing.B) {
			p := nsec3.Params{Alg: dnswire.NSEC3HashSHA1, Iterations: iters, Salt: []byte{0xAA, 0xBB, 0xCC, 0xDD}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := nsec3.Hash(name, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWorldOnce builds the testbed hierarchy one time for all benches.
var (
	benchWorldMu   sync.Mutex
	benchWorldOnce *testbed.Hierarchy
)

func benchWorld(b *testing.B) *testbed.Hierarchy {
	b.Helper()
	benchWorldMu.Lock()
	defer benchWorldMu.Unlock()
	if benchWorldOnce == nil {
		h, err := core.BuildTestbedWorld(1)
		if err != nil {
			b.Fatal(err)
		}
		benchWorldOnce = h
	}
	return benchWorldOnce
}

// BenchmarkCVE202350868ProofCost measures the resolver-side denial
// validation (closest-encloser search + covering checks) as the zone's
// iteration count grows — the attack surface of CVE-2023-50868.
func BenchmarkCVE202350868ProofCost(b *testing.B) {
	h := benchWorld(b)
	ctx := context.Background()
	for _, label := range []string{"it-1", "it-25", "it-150", "it-500"} {
		b.Run(label, func(b *testing.B) {
			sub := findSub(b, label)
			apex := sub.Apex()
			srv := h.Servers[netsim.Addr4(203, 0, 113, 10)]
			q := dnswire.NewQuery(1, sub.QName("bench"), dnswire.TypeA, true)
			q.Header.RecursionDesired = false
			resp := srv.Handle(ctx, netsim.Addr4(10, 0, 0, 1), q)
			set, err := nsec3.ExtractResponseSet(resp.Authority)
			if err != nil {
				b.Fatal(err)
			}
			qname := sub.QName("bench")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := set.VerifyNXDOMAIN(qname); err != nil {
					b.Fatal(err)
				}
			}
			_ = apex
		})
	}
}

func findSub(b *testing.B, label string) testbed.Subdomain {
	b.Helper()
	for _, s := range testbed.Subdomains() {
		if s.Label == label {
			return s
		}
	}
	b.Fatalf("no subdomain %s", label)
	return testbed.Subdomain{}
}

// ---------------------------------------------------------------------
// Table 1: guideline evaluation over a transcript.

func BenchmarkTable1RuleEvaluation(b *testing.B) {
	h := benchWorld(b)
	res := resolver.New(resolver.Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor, Exchanger: h.Net,
		Policy: respop.BIND2021.Policy,
		Now:    func() uint32 { return core.DefaultNow },
	})
	addr := netsim.Addr4(10, 99, 0, 1)
	h.Net.Register(addr, res)
	tr, err := testbed.ProbeResolver(context.Background(), h.Net, addr, "bench-t1")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := compliance.ClassifyResolver(tr)
		if !c.IsValidator {
			b.Fatal("misclassified")
		}
	}
}

// ---------------------------------------------------------------------
// Figure 1: the per-domain scan pipeline, end to end over the wire.

var (
	scanWorldMu  sync.Mutex
	scanWorldNet *netsim.Network
	scanWorldU   *population.Universe
)

func benchScanWorld(b *testing.B) (*netsim.Network, *population.Universe) {
	b.Helper()
	scanWorldMu.Lock()
	defer scanWorldMu.Unlock()
	if scanWorldNet == nil {
		u, err := population.Generate(population.Config{Registered: 600, Seed: 4})
		if err != nil {
			b.Fatal(err)
		}
		net := netsim.NewNetwork(4)
		dep, err := population.Deploy(u, net, core.DefaultInception, core.DefaultExpiration)
		if err != nil {
			b.Fatal(err)
		}
		res := resolver.New(resolver.Config{
			Roots: dep.Hierarchy.Roots, TrustAnchor: dep.Hierarchy.TrustAnchor,
			Exchanger: net, Policy: respop.Cloudflare.Policy,
			Now:             func() uint32 { return core.DefaultNow },
			MaxCacheEntries: 1 << 16,
		})
		net.Register(netsim.Addr4(1, 1, 1, 1), res)
		scanWorldNet, scanWorldU = net, u
	}
	return scanWorldNet, scanWorldU
}

func BenchmarkFig1DomainScan(b *testing.B) {
	net, u := benchScanWorld(b)
	sc := scanner.New(scanner.Config{
		Exchanger: net, Resolver: netsim.Addr4(1, 1, 1, 1), Workers: 1, Seed: 11,
	})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := u.Domains[i%len(u.Domains)]
		r := sc.ScanDomain(ctx, d.Name)
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		compliance.Classify(r.Facts)
	}
}

// ---------------------------------------------------------------------
// The sharded survey pipeline end to end.

// BenchmarkSurveyShardedEndToEnd runs the whole §4.1 survey through the
// streaming generate→deploy→scan→merge loop at different shard counts
// and signing modes. Results are identical in every cell
// (TestSurveyShardEquivalence, TestSurveyEagerLazyEquivalence); what
// varies is the memory envelope — lazy signing skips the untouched
// part of each shard's 1,449-zone TLD registry plus all deferred
// raw-zone construction, which shows up directly in B/op.
func BenchmarkSurveyShardedEndToEnd(b *testing.B) {
	for _, mode := range []struct {
		name    string
		signing core.SigningMode
	}{
		{"lazy", core.SigningLazy},
		{"eager", core.SigningEager},
	} {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/shards-%d", mode.name, shards), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					report, err := core.RunSurvey(context.Background(), core.SurveyConfig{
						Registered: 600,
						Seed:       3,
						Shards:     shards,
						Signing:    mode.signing,
					})
					if err != nil {
						b.Fatal(err)
					}
					if report.Agg.Total != 600 {
						b.Fatal("short survey")
					}
				}
			})
		}
	}
}

// BenchmarkResolverStudySharded runs the whole §4.2 resolver study
// through the plan→execute→merge loop at different shard counts.
// Results are identical in every cell (TestResolverStudyShardEquivalence);
// what varies is the memory envelope — each shard deploys only its
// cursor's slice of the fleet, and the sign cache keeps the testbed's
// 52 zones signed once across shard worlds.
func BenchmarkResolverStudySharded(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				report, err := core.RunResolverStudy(context.Background(), core.ResolverStudyConfig{
					ScaleDen: 1000,
					Seed:     3,
					Shards:   shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				if report.Overall.Probed == 0 {
					b.Fatal("short resolver study")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Figure 2: rank-CDF construction over the NSEC3 intersection.

func BenchmarkFig2TrancoIntersect(b *testing.B) {
	u, err := population.Generate(population.Config{
		Registered: 20000, Seed: 5, RankedSize: 20000,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist := make(map[int]int)
		nsec3Count := 0
		for j := range u.Domains {
			if u.Domains[j].NSEC3 {
				hist[u.Domains[j].Rank]++
				nsec3Count++
			}
		}
		cdf := analysis.CDFFromHist(hist)
		if cdf.Total() != nsec3Count {
			b.Fatal("bad CDF")
		}
	}
}

// ---------------------------------------------------------------------
// Table 2: operator attribution from NS host names.

func BenchmarkTable2OperatorAttribution(b *testing.B) {
	u, err := population.Generate(population.Config{Registered: 50000, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	type row struct {
		op    string
		iters uint16
		salt  int
	}
	var rows []row
	for i := range u.Domains {
		d := &u.Domains[i]
		if d.NSEC3 {
			rows = append(rows, row{u.Operators[d.Operator].InfraDomain, d.Iterations, d.SaltLen})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := analysis.NewOperatorStats()
		for _, r := range rows {
			stats.Add([]string{r.op}, r.iters, r.salt)
		}
		if len(stats.Top(10)) == 0 {
			b.Fatal("no rows")
		}
	}
}

// ---------------------------------------------------------------------
// Figure 3: a complete 50-subdomain probe of one validating resolver.

func BenchmarkFig3ResolverProbe(b *testing.B) {
	h := benchWorld(b)
	res := resolver.New(resolver.Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor, Exchanger: h.Net,
		Policy: respop.BIND2021.Policy,
		Now:    func() uint32 { return core.DefaultNow },
	})
	addr := netsim.Addr4(10, 99, 0, 2)
	h.Net.Register(addr, res)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh unique label per iteration defeats the resolver's
		// message cache, as the paper's wildcard design intends.
		tr, err := testbed.ProbeResolver(ctx, h.Net, addr, fmt.Sprintf("bench-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Observations) != 50 {
			b.Fatal("short transcript")
		}
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §4).

// benchChain builds a medium zone chain for the ablation benches.
func benchChain(b *testing.B, iters uint16) (*nsec3.Chain, map[dnswire.Name]dnswire.TypeBitmap) {
	b.Helper()
	apex := dnswire.MustParseName("bench.example")
	names := map[dnswire.Name]dnswire.TypeBitmap{
		apex: dnswire.NewTypeBitmap(dnswire.TypeSOA, dnswire.TypeNS),
	}
	for i := 0; i < 500; i++ {
		names[apex.MustChild(fmt.Sprintf("host%03d", i))] = dnswire.NewTypeBitmap(dnswire.TypeA)
	}
	c, err := nsec3.BuildChain(apex, nsec3.Params{Alg: dnswire.NSEC3HashSHA1, Iterations: iters}, names, false, 300)
	if err != nil {
		b.Fatal(err)
	}
	return c, names
}

// BenchmarkAblationHashMemo compares serving proofs from a prebuilt
// (hash-memoized) chain against rebuilding the chain per query — the
// design choice that makes the authoritative side one iterated hash
// per negative answer (the next-closer name's; the closest encloser is
// indexed and its wildcard remembered per record).
func BenchmarkAblationHashMemo(b *testing.B) {
	qname := dnswire.MustParseName("nope.bench.example")
	b.Run("memoized-chain", func(b *testing.B) {
		c, names := benchChain(b, 10)
		exists := func(n dnswire.Name) bool { _, ok := names[n]; return ok }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.ProveNXDOMAIN(qname, exists); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild-per-query", func(b *testing.B) {
		_, names := benchChain(b, 10)
		exists := func(n dnswire.Name) bool { _, ok := names[n]; return ok }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := nsec3.BuildChain("bench.example.", nsec3.Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 10}, names, false, 300)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.ProveNXDOMAIN(qname, exists); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationProofSearch compares the chain's binary search
// against a linear scan over the sorted records.
func BenchmarkAblationProofSearch(b *testing.B) {
	c, _ := benchChain(b, 0)
	h, err := nsec3.Hash(dnswire.MustParseName("missing.bench.example"), c.Params)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary-search", func(b *testing.B) {
		qname := dnswire.MustParseName("missing.bench.example")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := c.Cover(qname); err != nil || !ok {
				b.Fatal("cover failed")
			}
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			found := false
			for _, rec := range c.Records {
				if nsec3.Covers(rec.OwnerHash, rec.RR.NextHashedOwner, h) {
					found = true
					break
				}
			}
			if !found {
				b.Fatal("cover failed")
			}
		}
	})
}

// BenchmarkAblationCompression measures name compression's effect on
// encoding cost and wire size for a referral-shaped message.
func BenchmarkAblationCompression(b *testing.B) {
	msg := &dnswire.Message{
		Header:    dnswire.Header{ID: 1, Response: true},
		Questions: []dnswire.Question{{Name: "host.sub.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN}},
	}
	for i := 0; i < 8; i++ {
		msg.Authority = append(msg.Authority, dnswire.RR{
			Name: "sub.example.com.", Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.NS{Host: dnswire.MustParseName(fmt.Sprintf("ns%d.sub.example.com", i))},
		})
	}
	for _, mode := range []struct {
		name     string
		compress bool
	}{{"compressed", true}, {"uncompressed", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var size int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wire, err := msg.PackBuffer(nil, 0, mode.compress)
				if err != nil {
					b.Fatal(err)
				}
				size = len(wire)
			}
			b.ReportMetric(float64(size), "wire-bytes")
		})
	}
}

// BenchmarkAblationPolicyOrder measures the Item 7 trade-off on an
// over-limit negative response: checking the iteration policy first and
// skipping signature verification (the violator's shortcut) versus
// verifying the NSEC3 RRSIGs before trusting the count (compliant).
func BenchmarkAblationPolicyOrder(b *testing.B) {
	h := benchWorld(b)
	ctx := context.Background()
	mkResolver := func(verify bool, octet byte) *resolver.Resolver {
		pol := respop.BIND2021.Policy
		pol.VerifyInsecureNSEC3 = verify
		res := resolver.New(resolver.Config{
			Roots: h.Roots, TrustAnchor: h.TrustAnchor, Exchanger: h.Net,
			Policy: pol,
			Now:    func() uint32 { return core.DefaultNow },
		})
		h.Net.Register(netsim.Addr4(10, 99, 1, octet), res)
		return res
	}
	sub := findSub(b, "it-500")
	for _, mode := range []struct {
		name   string
		verify bool
		octet  byte
	}{{"item7-compliant-verify-first", true, 1}, {"shortcut-skip-verification", false, 2}} {
		b.Run(mode.name, func(b *testing.B) {
			res := mkResolver(mode.verify, mode.octet)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qname := sub.QName(fmt.Sprintf("po-%s-%d", mode.name, i))
				r, err := res.Resolve(ctx, qname, dnswire.TypeA)
				if err != nil {
					b.Fatal(err)
				}
				if r.RCode != dnswire.RCodeNXDomain {
					b.Fatalf("rcode %s", r.RCode)
				}
			}
		})
	}
}

// BenchmarkZoneSigning measures full zone signing across denial modes —
// the operational cost RFC 9276 Item 3 cites against salt rotation
// (changing the salt re-hashes and re-signs the entire chain).
func BenchmarkZoneSigning(b *testing.B) {
	build := func() *zone.Zone {
		apex := dnswire.MustParseName("signbench.example")
		z := zone.New(apex, 300)
		z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOA{
			MName: apex.MustChild("ns1"), RName: apex.MustChild("hostmaster"),
			Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300,
		}})
		z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: apex.MustChild("ns1")}})
		for i := 0; i < 50; i++ {
			z.MustAdd(dnswire.RR{Name: apex.MustChild(fmt.Sprintf("h%02d", i)), Class: dnswire.ClassIN,
				TTL: 300, Data: dnswire.TXT{Strings: []string{"x"}}})
		}
		return z
	}
	for _, mode := range []struct {
		name string
		cfg  zone.SignConfig
	}{
		{"NSEC", zone.SignConfig{Denial: zone.DenialNSEC}},
		{"NSEC3-it0", zone.SignConfig{Denial: zone.DenialNSEC3}},
		{"NSEC3-it100-salted", zone.SignConfig{Denial: zone.DenialNSEC3,
			NSEC3: nsec3.Params{Iterations: 100, Salt: bytes.Repeat([]byte{0xAB}, 8)}}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := mode.cfg
			cfg.Inception, cfg.Expiration = core.DefaultInception, core.DefaultExpiration
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				z := build()
				b.StartTimer()
				if _, err := z.Sign(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAggressiveNSEC compares serving repeated NXDOMAINs
// for one zone with and without RFC 8198 aggressive NSEC3 caching. The
// cache eliminates upstream traffic but still pays the iterated hash
// per synthesis — so the win shrinks as the zone's iteration count
// grows, another consequence of violating RFC 9276 Item 2.
func BenchmarkAblationAggressiveNSEC(b *testing.B) {
	h := benchWorld(b)
	ctx := context.Background()
	for _, mode := range []struct {
		name       string
		aggressive bool
		octet      byte
	}{{"rfc8198-on", true, 10}, {"rfc8198-off", false, 11}} {
		for _, label := range []string{"it-1", "it-150"} {
			b.Run(mode.name+"/"+label, func(b *testing.B) {
				pol := respop.BIND2021.Policy
				pol.AggressiveNSEC = mode.aggressive
				res := resolver.New(resolver.Config{
					Roots: h.Roots, TrustAnchor: h.TrustAnchor, Exchanger: h.Net,
					Policy: pol,
					Now:    func() uint32 { return core.DefaultNow },
				})
				h.Net.Register(netsim.Addr4(10, 99, mode.octet, labelOctet(label)), res)
				sub := findSub(b, label)
				// Warm: prime delegations, keys, and (when on) spans.
				for i := 0; i < 8; i++ {
					if _, err := res.Resolve(ctx, sub.QName(fmt.Sprintf("warm-%d", i)), dnswire.TypeA); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := sub.QName(fmt.Sprintf("agg-%d", i))
					r, err := res.Resolve(ctx, q, dnswire.TypeA)
					if err != nil || r.RCode != dnswire.RCodeNXDomain {
						b.Fatalf("%v %v", err, r)
					}
				}
			})
		}
	}
}

func labelOctet(label string) byte {
	var h byte
	for i := 0; i < len(label); i++ {
		h = h*31 + label[i]
	}
	return h
}

// BenchmarkAblationQNameMinimization measures RFC 9156's cost: the
// minimized walk sends extra per-level NS probes in exchange for not
// disclosing the full query name to every server on the path.
func BenchmarkAblationQNameMinimization(b *testing.B) {
	h := benchWorld(b)
	ctx := context.Background()
	for _, mode := range []struct {
		name string
		min  bool
	}{{"minimized", true}, {"full-qname", false}} {
		b.Run(mode.name, func(b *testing.B) {
			pol := respop.BIND2021.Policy
			pol.QNameMinimization = mode.min
			res := resolver.New(resolver.Config{
				Roots: h.Roots, TrustAnchor: h.TrustAnchor, Exchanger: h.Net,
				Policy: pol,
				Now:    func() uint32 { return core.DefaultNow },
			})
			sub := findSub(b, "it-5")
			// Warm infrastructure so the loop isolates the walk shape.
			if _, err := res.Resolve(ctx, sub.QName("warm"), dnswire.TypeA); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := sub.QName(fmt.Sprintf("qm-%d", i))
				r, err := res.Resolve(ctx, q, dnswire.TypeA)
				if err != nil || r.RCode != dnswire.RCodeNXDomain {
					b.Fatalf("%v %v", err, r)
				}
			}
		})
	}
}

// BenchmarkAuthServerQPS measures the authoritative serving path end
// to end — Handle dispatch plus PackBuffer rendering into a reused
// buffer — for one NSEC3-signed zone under three query mixes: pure
// positive answers, pure NXDOMAIN (each carrying its NSEC3 denial
// proof), and an alternating blend. Run with -benchmem: allocs/op is
// the number this PR's hotpathalloc work drives toward the floor (the
// response Message and answer synthesis, both //repro:allocok-waived
// pending the precompiled answer cache).
func BenchmarkAuthServerQPS(b *testing.B) {
	apex := dnswire.MustParseName("qps.example.")
	z := zone.New(apex, 300)
	z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOA{
		MName: apex.MustChild("ns"), RName: apex.MustChild("hostmaster"),
		Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300,
	}})
	z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: apex.MustChild("ns")}})
	for i := 0; i < 16; i++ {
		z.MustAdd(dnswire.RR{Name: apex.MustChild(fmt.Sprintf("h%02d", i)), Class: dnswire.ClassIN,
			TTL: 300, Data: dnswire.TXT{Strings: []string{"x"}}})
	}
	signed, err := z.Sign(zone.SignConfig{
		Denial: zone.DenialNSEC3, NSEC3: nsec3.Params{Iterations: 0},
		Inception: core.DefaultInception, Expiration: core.DefaultExpiration,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := authserver.New()
	srv.AddZone(signed)

	positive := make([]*dnswire.Message, 16)
	for i := range positive {
		positive[i] = dnswire.NewQuery(uint16(i), apex.MustChild(fmt.Sprintf("h%02d", i)), dnswire.TypeTXT, true)
	}
	nxdomain := make([]*dnswire.Message, 16)
	for i := range nxdomain {
		nxdomain[i] = dnswire.NewQuery(uint16(i), apex.MustChild(fmt.Sprintf("missing-%02d", i)), dnswire.TypeA, true)
	}
	ctx := context.Background()
	from := netip.MustParseAddrPort("192.0.2.7:5353")
	buf := make([]byte, 0, dnswire.DefaultUDPSize)

	serve := func(b *testing.B, pick func(i int) *dnswire.Message, wantRCode dnswire.RCode) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := pick(i)
			resp := srv.Handle(ctx, from, q)
			if resp == nil || resp.Header.RCode != wantRCode {
				b.Fatalf("query %d: resp=%v", i, resp)
			}
			buf, err = resp.PackBuffer(buf[:0], dnswire.DefaultUDPSize, true)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("positive", func(b *testing.B) {
		serve(b, func(i int) *dnswire.Message { return positive[i%len(positive)] }, dnswire.RCodeNoError)
	})
	b.Run("nxdomain-nsec3-proof", func(b *testing.B) {
		serve(b, func(i int) *dnswire.Message { return nxdomain[i%len(nxdomain)] }, dnswire.RCodeNXDomain)
	})
	b.Run("mixed", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var q *dnswire.Message
			want := dnswire.RCodeNoError
			if i%2 == 0 {
				q = positive[i%len(positive)]
			} else {
				q = nxdomain[i%len(nxdomain)]
				want = dnswire.RCodeNXDomain
			}
			resp := srv.Handle(ctx, from, q)
			if resp == nil || resp.Header.RCode != want {
				b.Fatalf("query %d: resp=%v", i, resp)
			}
			buf, err = resp.PackBuffer(buf[:0], dnswire.DefaultUDPSize, true)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
