package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"slices"
	"sync"
	"time"

	"repro/bench/internal/load"
	"repro/bench/internal/stats"
	"repro/internal/analysis"
	"repro/internal/atlas"
	"repro/internal/authserver"
	"repro/internal/compliance"
	"repro/internal/core"
	"repro/internal/distsurvey"
	"repro/internal/dnssec"
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

// This file holds the traced run's timed loops: each calls one layer
// through its public functions, on inputs captured from authd_unique's
// stream or from the testbed and survey worlds, for a fixed slice of
// the run's --seconds. They are the same on every workload; what they
// should move, and where, is in README.md.

const ring = 64 // distinct inputs each loop cycles, so no loop times one lucky input

// layers carries the loop length and the values map through the blocks.
type layers struct {
	ctx  context.Context
	o    options
	d    time.Duration
	vals map[string]float64
	log  io.Writer
}

// ns times fn and stores its mean ns per call under name; with
// allocsName it stores the allocations per call too.
func (l *layers) ns(name, allocsName string, fn func(i int)) {
	ns, allocs := timeLoop(l.d, fn)
	l.vals[name] = ns
	if allocsName != "" {
		l.vals[allocsName] = allocs
	}
}

// layerLoops runs every block. w is the authd world when the workload
// already built one; otherwise it is built here.
func layerLoops(ctx context.Context, o options, w *authdWorld, vals map[string]float64, log io.Writer) error {
	l := &layers{ctx: ctx, o: o, d: time.Duration(o.seconds / 80 * float64(time.Second)), vals: vals, log: log}
	if w == nil {
		var err error
		if w, err = buildAuthdWorld(ctx, o.seed, o.sizes().zoneNames); err != nil {
			return err
		}
	}
	for _, block := range []struct {
		name string
		run  func() error
	}{
		{"authd", func() error { return l.authdBlock(w) }},
		{"hash", l.hashBlock},
		{"route", l.routeBlock},
		{"udp", func() error { return l.udpBlock(w) }},
		{"testbed", l.testbedBlock},
		{"survey", l.surveyBlock},
		{"plan", l.planBlock},
		{"distsurvey", l.distBlock},
	} {
		t0 := time.Now()
		if err := block.run(); err != nil {
			return fmt.Errorf("layer block %s: %w", block.name, err)
		}
		fmt.Fprintf(log, "bench: layer block %s took %.2fs\n", block.name, time.Since(t0).Seconds())
	}
	return nil
}

// captured is one question of the unique stream with every form the
// layers see it in.
type captured struct {
	name   dnswire.Name
	qtype  dnswire.Type
	query  *dnswire.Message // as the client builds it
	qwire  []byte
	parsed *dnswire.Message // as the server receives it
	resp   *dnswire.Message // as Handle returns it
	rwire  []byte
	proof  *nsec3.ResponseSet // NXDOMAIN only
}

func capture(ctx context.Context, w *authdWorld, seed uint64) (pos, nx []captured, err error) {
	stream := load.NewUnique(seed, w.apex, w.labels)
	from := netip.MustParseAddrPort("10.0.0.1:53000")
	for len(pos) < ring || len(nx) < ring {
		q := stream.Next()
		c := captured{name: q.Name, qtype: q.Type}
		c.query = dnswire.NewQuery(uint16(len(pos)+len(nx)), q.Name, q.Type, true)
		if c.qwire, err = c.query.Pack(); err != nil {
			return nil, nil, err
		}
		if c.parsed, err = dnswire.Unpack(c.qwire); err != nil {
			return nil, nil, err
		}
		c.resp = w.srv.Handle(ctx, from, c.parsed)
		if c.rwire, err = c.resp.PackBuffer(nil, dnswire.DefaultUDPSize, true); err != nil {
			return nil, nil, err
		}
		if !q.NX {
			pos = append(pos, c)
			continue
		}
		if c.proof, err = nsec3.ExtractResponseSet(c.resp.Authority); err != nil {
			return nil, nil, err
		}
		nx = append(nx, c)
	}
	return pos[:ring], nx[:ring], nil
}

// authdBlock times the layers one Exchange against authd crosses:
// codec, proof search, answer synthesis, dispatch, transport.
func (l *layers) authdBlock(w *authdWorld) error {
	pos, nx, err := capture(l.ctx, w, l.o.seed)
	if err != nil {
		return err
	}
	var fail error
	keep := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}
	buf := make([]byte, 0, 4096)
	unpack := func(wire func(i int) []byte) func(int) {
		return func(i int) { _, err := dnswire.Unpack(wire(i)); keep(err) }
	}
	pack := func(msg func(i int) *dnswire.Message) func(int) {
		return func(i int) {
			var err error
			buf, err = msg(i).PackBuffer(buf[:0], dnswire.DefaultUDPSize, true)
			keep(err)
		}
	}
	l.ns("dnswire.unpack_ns.query", "", unpack(func(i int) []byte { return pos[i%ring].qwire }))
	l.ns("dnswire.unpack_ns.positive", "", unpack(func(i int) []byte { return pos[i%ring].rwire }))
	l.ns("dnswire.unpack_ns.nxdomain", "dnswire.allocs.unpack_nxdomain", unpack(func(i int) []byte { return nx[i%ring].rwire }))
	l.ns("dnswire.pack_ns.query", "", pack(func(i int) *dnswire.Message { return pos[i%ring].query }))
	l.ns("dnswire.pack_ns.positive", "", pack(func(i int) *dnswire.Message { return pos[i%ring].resp }))
	l.ns("dnswire.pack_ns.nxdomain", "dnswire.allocs.pack_nxdomain", pack(func(i int) *dnswire.Message { return nx[i%ring].resp }))
	var posBytes, nxBytes float64
	for i := 0; i < ring; i++ {
		posBytes += float64(len(pos[i].rwire)) / ring
		nxBytes += float64(len(nx[i].rwire)) / ring
	}
	l.vals["dnswire.wire_bytes.positive"], l.vals["dnswire.wire_bytes.nxdomain"] = posBytes, nxBytes

	chain := w.signed.Chain()
	l.ns("nsec3.prove_nxdomain_ns", "", func(i int) {
		_, err := chain.ProveNXDOMAIN(nx[i%ring].name, w.signed.Exists)
		keep(err)
	})
	l.ns("nsec3.verify_nxdomain_ns.it0", "", func(i int) {
		_, _, err := nx[i%ring].proof.VerifyNXDOMAIN(nx[i%ring].name)
		keep(err)
	})

	l.ns("zone.evaluate_ns.positive", "", func(i int) {
		_, err := w.signed.Evaluate(pos[i%ring].name, pos[i%ring].qtype, true)
		keep(err)
	})
	l.ns("zone.evaluate_ns.nxdomain", "zone.evaluate_allocs.nxdomain", func(i int) {
		_, err := w.signed.Evaluate(nx[i%ring].name, nx[i%ring].qtype, true)
		keep(err)
	})
	l.vals["zone.sign_us_per_name"] = w.signSeconds * 1e6 / float64(len(w.labels))

	rrs := w.signed.Zone.Lookup(pos[0].name, dnswire.TypeTXT)
	set, err := dnssec.NewRRset(rrs)
	if err != nil {
		return err
	}
	var sigRR dnswire.RR
	l.ns("dnssec.sign_us", "", func(int) {
		var err error
		sigRR, err = dnssec.SignRR(rrs, w.signed.ZSK, w.apex, core.DefaultInception, core.DefaultExpiration)
		keep(err)
	})
	if fail != nil {
		return fail
	}
	sig, key := sigRR.Data.(dnswire.RRSIG), w.signed.ZSK.DNSKEY()
	l.ns("dnssec.verify_us", "", func(int) { keep(dnssec.Verify(set, sig, key)) })
	l.vals["dnssec.sign_us"] /= 1e3
	l.vals["dnssec.verify_us"] /= 1e3

	from := netip.MustParseAddrPort("10.0.0.1:53000")
	handle := func(cs []captured, want dnswire.RCode) func(int) {
		return func(i int) {
			if resp := w.srv.Handle(l.ctx, from, cs[i%ring].parsed); resp.Header.RCode != want {
				keep(fmt.Errorf("handle: rcode %s, want %s", resp.Header.RCode, want))
			}
		}
	}
	l.ns("authserver.handle_ns.positive", "authserver.handle_allocs.positive", handle(pos, dnswire.RCodeNoError))
	l.ns("authserver.handle_ns.nxdomain", "authserver.handle_allocs.nxdomain", handle(nx, dnswire.RCodeNXDomain))
	l.ns("authserver.route_ns.zones1", "", func(i int) {
		if _, ok := w.srv.ZoneFor(l.ctx, pos[i%ring].name); !ok {
			keep(fmt.Errorf("route: no zone for %s", pos[i%ring].name))
		}
	})

	// Exchange against a handler that does no work: what the simulated
	// transport itself costs (lookup plus four codec passes).
	canned := netsim.NewNetwork(l.o.seed)
	canned.Register(w.addr, netsim.HandlerFunc(func(context.Context, netip.AddrPort, *dnswire.Message) *dnswire.Message {
		return pos[0].resp
	}))
	l.ns("netsim.exchange_overhead_ns", "", func(int) {
		_, err := canned.Exchange(l.ctx, w.addr, pos[0].query)
		keep(err)
	})
	return fail
}

// hashBlock times the iterated hash at the paper's zero, at a common
// violation and at the CVE-2023-50868 attack setting.
func (l *layers) hashBlock() error {
	name := dnswire.MustParseName("some-random-subdomain.example.com")
	var fail error
	for _, it := range []uint16{0, 100, 2500} {
		p := nsec3.Params{Alg: dnswire.NSEC3HashSHA1, Iterations: it}
		if it > 0 {
			p.Salt = []byte{0xAA, 0xBB, 0xCC, 0xDD}
		}
		l.ns(fmt.Sprintf("nsec3.hash_ns.it%d", it), "", func(int) {
			if _, err := nsec3.Hash(name, p); err != nil {
				fail = err
			}
		})
	}
	return fail
}

// routeBlock times what grows with the size of one world: routing
// among many hosted zones, and recording into a full query log.
func (l *layers) routeBlock() error {
	const hosted = 5000
	srv := authserver.New()
	names := make([]dnswire.Name, ring)
	for i := 0; i < hosted; i++ {
		apex := dnswire.MustParseName(fmt.Sprintf("z%04d.route.example.", i))
		if i < ring {
			names[i] = apex.MustChild("www")
		}
		srv.AddLazyZone(apex, func() (*zone.Signed, error) {
			z := zone.New(apex, 300)
			z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.SOA{
				MName: apex.MustChild("ns"), RName: apex.MustChild("hostmaster"), Serial: 1, Minimum: 300}})
			z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.NS{Host: apex.MustChild("ns")}})
			return z.Sign(zone.SignConfig{Denial: zone.DenialNone})
		})
	}
	var fail error
	l.ns("authserver.route_ns.zones5000", "", func(i int) {
		if _, ok := srv.ZoneFor(l.ctx, names[i%ring]); !ok {
			fail = fmt.Errorf("route: no zone for %s", names[i%ring])
		}
	})
	const logSize = 65536 // testbed.Hierarchy's shared log size is of this order
	qlog := authserver.NewQueryLog(logSize)
	from := netip.MustParseAddrPort("10.0.0.1:53000")
	for i := 0; i < logSize; i++ {
		qlog.Record(from, names[i%ring])
	}
	l.ns("authserver.querylog_record_ns.full", "", func(i int) { qlog.Record(from, names[i%ring]) })
	return fail
}

// udpBlock sends queries over real UDP sockets on the loopback
// interface — loopback, not a link. Most of the round trip is kernel
// and scheduler, so these lines are reported and never gated; where
// the sandbox forbids sockets they read 0.
func (l *layers) udpBlock(w *authdWorld) error {
	srv := &netsim.Server{Handler: w.srv}
	addr, err := srv.Listen(l.ctx, "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(l.log, "bench: no loopback UDP here (%v); netsim.udp_* read 0\n", err)
		return nil
	}
	defer srv.Close() // Close always returns nil
	ex := &netsim.UDPExchanger{Timeout: time.Second}
	stream := load.NewUnique(l.o.seed, w.apex, w.labels)
	var rtts []int64
	start := time.Now()
	for time.Since(start) < 4*l.d {
		q := stream.Next()
		t0 := time.Now()
		if _, err := ex.Exchange(l.ctx, addr, dnswire.NewQuery(uint16(len(rtts)), q.Name, q.Type, true)); err != nil {
			return err
		}
		rtts = append(rtts, int64(time.Since(t0)))
	}
	elapsed := time.Since(start)
	slices.Sort(rtts)
	l.vals["netsim.udp_rtt_us_p50"] = float64(stats.QuantileSorted(rtts, 0.50)) / 1e3
	l.vals["netsim.udp_rtt_us_p99"] = float64(stats.QuantileSorted(rtts, 0.99)) / 1e3
	l.vals["netsim.udp_qps"] = float64(len(rtts)) / elapsed.Seconds()
	return nil
}

func subdomain(label string) (testbed.Subdomain, error) {
	for _, s := range testbed.Subdomains() {
		if s.Label == label {
			return s, nil
		}
	}
	return testbed.Subdomain{}, fmt.Errorf("no testbed subdomain %s", label)
}

// testbedBlock times the resolver study's layers on the rfc9276 world:
// building it, resolving through it cold, warm and cached, verifying an
// it-150 denial, probing and classifying one resolver.
func (l *layers) testbedBlock() error {
	cache := testbed.NewSignCache()
	var builds []float64
	var h *testbed.Hierarchy
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		var err error
		if h, err = core.BuildTestbedWorld(l.o.seed+uint64(i), testbed.WithLazySigning(), testbed.WithCache(cache)); err != nil {
			return err
		}
		if i > 0 { // the first build fills the sign cache the later shard worlds share
			builds = append(builds, time.Since(t0).Seconds()*1e3)
		}
	}
	l.vals["testbed.build_world_ms"] = stats.Median(builds)

	newResolver := func() *resolver.Resolver {
		return resolver.New(resolver.Config{
			Roots: h.Roots, TrustAnchor: h.TrustAnchor, Exchanger: h.Net,
			Policy: respop.BIND2021.Policy, Now: simNow,
		})
	}
	it1, err := subdomain("it-1")
	if err != nil {
		return err
	}
	it150, err := subdomain("it-150")
	if err != nil {
		return err
	}
	valid, err := subdomain("valid")
	if err != nil {
		return err
	}
	var fail error
	nxdomain := func(res *resolver.Resolver, qname dnswire.Name) {
		r, err := res.Resolve(l.ctx, qname, dnswire.TypeA)
		if err == nil && r.RCode != dnswire.RCodeNXDomain {
			err = fmt.Errorf("%s: rcode %s, want NXDOMAIN", qname, r.RCode)
		}
		if err != nil && fail == nil {
			fail = err
		}
	}
	// Warm the world first: lazy zones sign on their first query, and
	// that cost belongs to authserver.sign_wait_s, not to the resolver.
	warm := newResolver()
	// No testbed zone pairs iterations 0 with an NXDOMAIN probe, so the
	// it-0 case asks below the existing www of the it-0 "valid" zone,
	// which the apex wildcard does not cover.
	it0Name := func(unique string) dnswire.Name { return valid.Apex().MustChild("www").MustChild(unique) }
	for i := 0; i < 8; i++ {
		nxdomain(warm, it1.QName(fmt.Sprintf("warm-%d", i)))
		nxdomain(warm, it150.QName(fmt.Sprintf("warm-%d", i)))
		nxdomain(warm, it0Name(fmt.Sprintf("warm-%d", i)))
	}
	l.ns("resolver.resolve_cold_us", "", func(i int) { nxdomain(newResolver(), it1.QName(fmt.Sprintf("cold-%d", i))) })
	l.ns("resolver.resolve_warm_nx_us.it0", "", func(i int) { nxdomain(warm, it0Name(fmt.Sprintf("w0-%d", i))) })
	l.ns("resolver.resolve_warm_nx_us.it150", "", func(i int) { nxdomain(warm, it150.QName(fmt.Sprintf("w150-%d", i))) })
	for _, name := range []string{"resolver.resolve_cold_us", "resolver.resolve_warm_nx_us.it0", "resolver.resolve_warm_nx_us.it150"} {
		l.vals[name] /= 1e3
	}
	cached := it1.QName("cached")
	l.ns("resolver.resolve_cached_ns", "", func(int) { nxdomain(warm, cached) })

	// One it-150 denial as the authoritative server hands it out.
	q := dnswire.NewQuery(1, it150.QName("verify"), dnswire.TypeA, true)
	q.Header.RecursionDesired = false
	resp, err := h.Net.Exchange(l.ctx, netsim.Addr4(203, 0, 113, 10), q)
	if err != nil {
		return err
	}
	proof, err := nsec3.ExtractResponseSet(resp.Authority)
	if err != nil {
		return err
	}
	l.ns("nsec3.verify_nxdomain_ns.it150", "", func(int) {
		if _, _, err := proof.VerifyNXDOMAIN(it150.QName("verify")); err != nil && fail == nil {
			fail = err
		}
	})

	// Whole probes: 50 queries through a cold validator.
	var probes []float64
	var tr *testbed.Transcript
	for i := 0; i < 3; i++ {
		addr := netsim.Addr4(10, 99, 0, byte(i+1))
		h.Net.Register(addr, newResolver())
		t0 := time.Now()
		if tr, err = testbed.ProbeResolver(l.ctx, h.Net, addr, fmt.Sprintf("layer-%d", i)); err != nil {
			return err
		}
		probes = append(probes, time.Since(t0).Seconds()*1e3)
	}
	l.vals["testbed.probe_resolver_ms"] = stats.Median(probes)
	l.ns("compliance.classify_resolver_us", "", func(int) {
		if c := compliance.ClassifyResolver(tr); !c.IsValidator && fail == nil {
			fail = fmt.Errorf("a validating resolver was classified as a non-validator")
		}
	})
	l.vals["compliance.classify_resolver_us"] /= 1e3

	platform := &atlas.Platform{Exchanger: h.Net, MaxConcurrent: procs}
	vantage := make([]atlas.Probe, 2*procs)
	for i := range vantage {
		addr := netsim.Addr4(10, 99, 1, byte(i+1))
		h.Net.Register(addr, newResolver())
		vantage[i] = atlas.Probe{ID: i, Resolver: addr}
	}
	t0 := time.Now()
	for _, r := range platform.Measure(l.ctx, vantage, "layer") {
		if r.Err != nil {
			return r.Err
		}
	}
	l.vals["atlas.measure_us_per_probe"] = float64(time.Since(t0).Microseconds()) / float64(len(vantage))
	return fail
}

// recordingExchanger keeps one response per query type for names under
// want, so the scanner can later be driven without any transport.
type recordingExchanger struct {
	inner  netsim.Exchanger
	want   dnswire.Name
	byType map[dnswire.Type]*dnswire.Message
}

func (r *recordingExchanger) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	resp, err := r.inner.Exchange(ctx, server, q)
	if err == nil && q.Questions[0].Name.IsSubdomainOf(r.want) {
		r.byType[q.Questions[0].Type] = resp
	}
	return resp, err
}

// cannedExchanger answers from a recording: the scanner's own cost per
// domain with resolver, transport and servers taken away.
type cannedExchanger map[dnswire.Type]*dnswire.Message

func (c cannedExchanger) Exchange(_ context.Context, _ netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	resp, ok := c[q.Questions[0].Type]
	if !ok {
		return nil, fmt.Errorf("no canned response for %s", q.Questions[0].Type)
	}
	return resp, nil
}

// surveyBlock times the survey's layers on a small universe:
// generating it, deploying it, scanner dispatch, classification.
func (l *layers) surveyBlock() error {
	domains := 2 * l.o.sizes().sliceDomains
	planner, err := population.NewShardPlanner(population.Config{Registered: domains, Seed: l.o.seed})
	if err != nil {
		return err
	}
	plan := planner.Plan(1)[0]
	var shard *population.Shard
	var fail error
	l.ns("population.generate_us_per_domain", "", func(int) {
		if shard, err = planner.GenerateShard(plan); err != nil {
			fail = err
		}
	})
	if fail != nil {
		return fail
	}
	l.vals["population.generate_us_per_domain"] /= 1e3 * float64(domains)

	cache := testbed.NewSignCache()
	var deploys []float64
	var dep *population.Deployment
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		dep, err = population.Deploy(shard.Universe, netsim.NewNetwork(l.o.seed), core.DefaultInception, core.DefaultExpiration,
			population.WithSignCache(cache), population.WithLazySigning())
		if err != nil {
			return err
		}
		if i > 0 { // as for the testbed: later shards deploy against a filled cache
			deploys = append(deploys, time.Since(t0).Seconds()*1e3/float64(domains)*1000)
		}
	}
	l.vals["population.deploy_ms_per_kdomain"] = stats.Median(deploys)

	// Scan a few domains for real, keeping their facts and, for one
	// NSEC3-signed domain, the four responses its scan received.
	net := dep.Hierarchy.Net
	resolverAddr := netsim.Addr4(1, 1, 1, 1)
	net.Register(resolverAddr, resolver.New(resolver.Config{
		Roots: dep.Hierarchy.Roots, TrustAnchor: dep.Hierarchy.TrustAnchor, Exchanger: net,
		Policy: respop.Cloudflare.Policy, Now: simNow, MaxCacheEntries: 1 << 16,
	}))
	var signedDomain dnswire.Name
	for _, d := range shard.Universe.Domains {
		if d.NSEC3 {
			signedDomain = d.Name
			break
		}
	}
	if signedDomain == "" {
		return fmt.Errorf("universe of %d domains has no NSEC3 domain", domains)
	}
	rec := &recordingExchanger{inner: net, want: signedDomain, byType: make(map[dnswire.Type]*dnswire.Message)}
	sc := scanner.New(scanner.Config{Exchanger: rec, Resolver: resolverAddr, Workers: 1, Seed: l.o.seed})
	defer sc.Close()
	facts := make([]compliance.ZoneFacts, 0, ring)
	scan := func(name dnswire.Name) error {
		r := sc.ScanDomain(l.ctx, name)
		facts = append(facts, r.Facts)
		return r.Err
	}
	if err := scan(signedDomain); err != nil {
		return err
	}
	for _, d := range shard.Universe.Domains[:min(ring-1, domains)] {
		if err := scan(d.Name); err != nil {
			return err
		}
	}
	if len(rec.byType) != 4 {
		return fmt.Errorf("scan of %s recorded %d query types, want 4", signedDomain, len(rec.byType))
	}
	l.ns("compliance.classify_ns", "", func(i int) { compliance.Classify(facts[i%len(facts)]) })

	names := make([]dnswire.Name, len(shard.Universe.Domains))
	for i := range names {
		names[i] = shard.Universe.Domains[i].Name
	}
	dispatch := scanner.New(scanner.Config{Exchanger: cannedExchanger(rec.byType), Resolver: resolverAddr, Workers: procs, Seed: l.o.seed})
	defer dispatch.Close()
	l.ns("scanner.dispatch_us_per_domain", "", func(int) {
		err := dispatch.ScanAll(l.ctx, scanner.Names(names), func(int) scanner.Sink {
			return scanner.SinkFunc(func(r scanner.Result) {
				if r.Err != nil && fail == nil {
					fail = r.Err
				}
			})
		})
		if err != nil {
			fail = err
		}
	})
	l.vals["scanner.dispatch_us_per_domain"] /= 1e3 * float64(len(names))
	return fail
}

// planBlock times the index-pure fleet cursor and the CDF merge.
func (l *layers) planBlock() error {
	planner, err := respop.NewPlanner(respop.DeployConfig{Counts: respop.DefaultCounts(100), Seed: l.o.seed + 11, Now: simNow})
	if err != nil {
		return err
	}
	plan := planner.Plan(1)[0]
	var fail error
	l.ns("respop.cursor_ns_per_resolver", "", func(int) {
		cur, err := planner.Cursor(plan)
		if err != nil {
			fail = err
			return
		}
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
	})
	l.vals["respop.cursor_ns_per_resolver"] /= float64(plan.Size)

	hist := make(map[int]int, 501)
	for i := 0; i <= 500; i++ {
		hist[i] = 1 + i%7
	}
	into, from := analysis.CDFFromHist(hist), analysis.CDFFromHist(hist)
	l.ns("analysis.cdf_merge_us", "", func(int) { into.Merge(from) })
	l.vals["analysis.cdf_merge_us"] /= 1e3
	return fail
}

// distBlock compares a coordinator with two in-process workers over
// netsim.StreamNet against RunSurvey on the same survey, and times the
// crash-safe checkpoint write.
func (l *layers) distBlock() error {
	cfg := core.SurveyConfig{Registered: l.o.sizes().distRegistered, Shards: 4, Seed: l.o.seed, Workers: procs}
	spec, err := cfg.Resolve()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := core.RunSurvey(l.ctx, cfg); err != nil {
		return err
	}
	inProcess := time.Since(t0)

	t0 = time.Now()
	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		return err
	}
	coord, err := distsurvey.NewCoordinator(distsurvey.Config{Spec: spec})
	if err != nil {
		return err
	}
	var workers sync.WaitGroup
	workerErrs := make([]error, procs)
	for i := 0; i < procs; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			conn, err := sn.DialStream(l.ctx, "coord")
			if err == nil {
				err = distsurvey.RunWorker(l.ctx, conn, spec, distsurvey.WorkerConfig{Name: fmt.Sprintf("w%d", i)})
			}
			workerErrs[i] = err
		}()
	}
	report, err := coord.Serve(l.ctx, ln)
	workers.Wait()
	if err = errors.Join(append(workerErrs, err)...); err != nil {
		return err
	}
	if report.Agg.Total != cfg.Registered {
		return fmt.Errorf("distributed survey scanned %d of %d domains", report.Agg.Total, cfg.Registered)
	}
	l.vals["distsurvey.overhead_share"] = time.Since(t0).Seconds()/inProcess.Seconds() - 1

	// One shard's checkpoint, written the way the coordinator does.
	jobs, err := core.PlanJobs(spec)
	if err != nil {
		return err
	}
	outcome, err := core.NewShardRunner(nil, nil, nil).Execute(l.ctx, jobs[len(jobs)-1])
	if err != nil {
		return err
	}
	if err := os.MkdirAll(l.o.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(l.o.outDir, "checkpoint-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) // scratch state; a leftover directory is harmless
	store, _, _, err := distsurvey.OpenStore(dir, spec, false)
	if err != nil {
		return err
	}
	var writes []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := store.Write(&distsurvey.Checkpoint{Outcome: outcome}); err != nil {
			return err
		}
		writes = append(writes, time.Since(t0).Seconds()*1e3)
	}
	l.vals["distsurvey.checkpoint_write_ms"] = stats.Median(writes)
	return nil
}
