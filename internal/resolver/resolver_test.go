package resolver

import (
	"context"
	"net/netip"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

const (
	tInception  = 1709251200
	tExpiration = 1717200000
	tNow        = 1712000000
)

// buildWorld stands up root + com + the rfc9276 testbed on a simulated
// network and returns the hierarchy.
func buildWorld(t testing.TB) *testbed.Hierarchy {
	t.Helper()
	b := testbed.NewBuilder(tInception, tExpiration)
	testbed.InstallWorld(b)
	h, err := b.Build(netsim.NewNetwork(1))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func newTestResolver(t testing.TB, h *testbed.Hierarchy, p Policy) *Resolver {
	t.Helper()
	return New(Config{
		Roots:       h.Roots,
		TrustAnchor: h.TrustAnchor,
		Exchanger:   h.Net,
		Policy:      p,
		Now:         func() uint32 { return tNow },
	})
}

// compliantPolicy is a modern RFC 9276-style validator: insecure above
// 150, Item 7 honored.
func compliantPolicy() Policy {
	return Policy{
		Name: "test-compliant", Validate: true,
		InsecureLimit: 150, ServfailLimit: NoLimit,
		VerifyInsecureNSEC3: true,
		EDE:                 dnswire.EDEUnsupportedNSEC3Iter,
	}
}

func resolveA(t testing.TB, r *Resolver, qname string) *Result {
	t.Helper()
	res, err := r.Resolve(context.Background(), dnswire.MustParseName(qname), dnswire.TypeA)
	if err != nil {
		t.Fatalf("resolve %s: %v", qname, err)
	}
	return res
}

func TestResolveValidSubdomainSecure(t *testing.T) {
	h := buildWorld(t)
	r := newTestResolver(t, h, compliantPolicy())
	res := resolveA(t, r, "probe1.valid.rfc9276-in-the-wild.com")
	if res.RCode != dnswire.RCodeNoError || !res.AD {
		t.Fatalf("valid: rcode=%s ad=%v status=%s", res.RCode, res.AD, res.Status)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers for wildcard expansion")
	}
}

func TestResolveExpiredSubdomainServfail(t *testing.T) {
	h := buildWorld(t)
	r := newTestResolver(t, h, compliantPolicy())
	res := resolveA(t, r, "probe1.expired.rfc9276-in-the-wild.com")
	if res.RCode != dnswire.RCodeServFail {
		t.Fatalf("expired: rcode=%s status=%s", res.RCode, res.Status)
	}
}

func TestResolveLowIterationsAuthenticatedNXDOMAIN(t *testing.T) {
	h := buildWorld(t)
	r := newTestResolver(t, h, compliantPolicy())
	for _, sub := range []string{"it-1", "it-5", "it-25", "it-150"} {
		res := resolveA(t, r, "probe1.www."+sub+".rfc9276-in-the-wild.com")
		if res.RCode != dnswire.RCodeNXDomain || !res.AD {
			t.Fatalf("%s: rcode=%s ad=%v status=%s", sub, res.RCode, res.AD, res.Status)
		}
	}
}

func TestResolveHighIterationsInsecureNXDOMAIN(t *testing.T) {
	h := buildWorld(t)
	r := newTestResolver(t, h, compliantPolicy())
	for _, sub := range []string{"it-151", "it-200", "it-500"} {
		res := resolveA(t, r, "probe1.www."+sub+".rfc9276-in-the-wild.com")
		if res.RCode != dnswire.RCodeNXDomain || res.AD {
			t.Fatalf("%s: rcode=%s ad=%v status=%s", sub, res.RCode, res.AD, res.Status)
		}
		if res.Status != StatusInsecure {
			t.Fatalf("%s: status=%s", sub, res.Status)
		}
		// Item 10: EDE 27 attached.
		if len(res.EDE) != 1 || res.EDE[0].Code != dnswire.EDEUnsupportedNSEC3Iter {
			t.Fatalf("%s: EDE=%v", sub, res.EDE)
		}
	}
}

func TestResolveServfailPolicy(t *testing.T) {
	h := buildWorld(t)
	// Cloudflare-style: SERVFAIL above 150, EDE 27.
	p := Policy{
		Name: "cloudflare-style", Validate: true,
		InsecureLimit: NoLimit, ServfailLimit: 150,
		VerifyInsecureNSEC3: true, EDE: dnswire.EDEUnsupportedNSEC3Iter,
	}
	r := newTestResolver(t, h, p)
	res := resolveA(t, r, "probe1.www.it-151.rfc9276-in-the-wild.com")
	if res.RCode != dnswire.RCodeServFail {
		t.Fatalf("it-151: rcode=%s", res.RCode)
	}
	if len(res.EDE) != 1 || res.EDE[0].Code != dnswire.EDEUnsupportedNSEC3Iter {
		t.Fatalf("EDE=%v", res.EDE)
	}
	// At the limit: validated NXDOMAIN.
	res = resolveA(t, r, "probe1.www.it-150.rfc9276-in-the-wild.com")
	if res.RCode != dnswire.RCodeNXDomain || !res.AD {
		t.Fatalf("it-150: rcode=%s ad=%v", res.RCode, res.AD)
	}
}

func TestResolveStrictZeroServfailsFromOne(t *testing.T) {
	h := buildWorld(t)
	p := Policy{
		Name: "strict-zero", Validate: true,
		InsecureLimit: NoLimit, ServfailLimit: 0,
		VerifyInsecureNSEC3: true, EchoRA: true,
	}
	r := newTestResolver(t, h, p)
	if res := resolveA(t, r, "probe1.www.it-1.rfc9276-in-the-wild.com"); res.RCode != dnswire.RCodeServFail {
		t.Fatalf("it-1: rcode=%s", res.RCode)
	}
	// Zero iterations still validates.
	if res := resolveA(t, r, "probe1.valid.rfc9276-in-the-wild.com"); res.RCode != dnswire.RCodeNoError || !res.AD {
		t.Fatalf("valid: rcode=%s ad=%v", res.RCode, res.AD)
	}
}

func TestItem7CompliantVsViolator(t *testing.T) {
	h := buildWorld(t)
	// it-2501-expired: iterations beyond every limit, but the NSEC3
	// RRSIGs are expired. A compliant validator (Item 7) notices and
	// SERVFAILs; a violator returns the insecure NXDOMAIN.
	compliant := newTestResolver(t, h, compliantPolicy())
	res := resolveA(t, compliant, "probe1.www.it-2501-expired.rfc9276-in-the-wild.com")
	if res.RCode != dnswire.RCodeServFail {
		t.Fatalf("compliant: rcode=%s status=%s", res.RCode, res.Status)
	}

	violator := compliantPolicy()
	violator.Name = "item7-violator"
	violator.VerifyInsecureNSEC3 = false
	r2 := newTestResolver(t, h, violator)
	res = resolveA(t, r2, "probe2.www.it-2501-expired.rfc9276-in-the-wild.com")
	if res.RCode != dnswire.RCodeNXDomain || res.AD {
		t.Fatalf("violator: rcode=%s ad=%v", res.RCode, res.AD)
	}
}

func TestThreePhaseItem12Violation(t *testing.T) {
	h := buildWorld(t)
	p := Policy{
		Name: "three-phase", Validate: true,
		InsecureLimit: 100, ServfailLimit: 150,
		VerifyInsecureNSEC3: true,
	}
	r := newTestResolver(t, h, p)
	cases := []struct {
		sub   string
		rcode dnswire.RCode
		ad    bool
	}{
		{"it-100", dnswire.RCodeNXDomain, true},
		{"it-101", dnswire.RCodeNXDomain, false},
		{"it-150", dnswire.RCodeNXDomain, false},
		{"it-151", dnswire.RCodeServFail, false},
	}
	for _, c := range cases {
		res := resolveA(t, r, "p.www."+c.sub+".rfc9276-in-the-wild.com")
		if res.RCode != c.rcode || res.AD != c.ad {
			t.Fatalf("%s: rcode=%s ad=%v (want %s/%v)", c.sub, res.RCode, res.AD, c.rcode, c.ad)
		}
	}
}

func TestNonValidatingResolver(t *testing.T) {
	h := buildWorld(t)
	p := Policy{Name: "non-validating", Validate: false, InsecureLimit: NoLimit, ServfailLimit: NoLimit}
	r := newTestResolver(t, h, p)
	res := resolveA(t, r, "probe1.www.it-500.rfc9276-in-the-wild.com")
	if res.RCode != dnswire.RCodeNXDomain || res.AD {
		t.Fatalf("rcode=%s ad=%v", res.RCode, res.AD)
	}
	res = resolveA(t, r, "probe1.expired.rfc9276-in-the-wild.com")
	if res.RCode != dnswire.RCodeNoError || res.AD {
		t.Fatalf("expired via non-validator: rcode=%s ad=%v", res.RCode, res.AD)
	}
}

func TestResolverCaching(t *testing.T) {
	h := buildWorld(t)
	counter := &countingExchanger{inner: h.Net}
	r := New(Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor,
		Exchanger: counter, Policy: compliantPolicy(),
		Now: func() uint32 { return tNow },
	})
	resolveA(t, r, "probe1.valid.rfc9276-in-the-wild.com")
	first := counter.count
	if first == 0 {
		t.Fatal("no upstream queries")
	}
	resolveA(t, r, "probe1.valid.rfc9276-in-the-wild.com")
	if counter.count != first {
		t.Fatalf("cache miss: %d -> %d upstream queries", first, counter.count)
	}
	// A different name under the same zone reuses infrastructure
	// (delegations, keys): far fewer queries than the cold path.
	resolveA(t, r, "probe2.valid.rfc9276-in-the-wild.com")
	warm := counter.count - first
	if warm >= first {
		t.Fatalf("infrastructure cache ineffective: cold=%d warm=%d", first, warm)
	}
}

// TestCachesHonourMaxCacheEntries pins that every insert — client
// answers, the validator's own DS lookups and the delegations followed
// on the way alike — counts against Config.MaxCacheEntries: a validator walking more signed zones than
// the bound never holds more than the bound, observed at every upstream
// exchange so that growth inside one resolution is seen too.
func TestCachesHonourMaxCacheEntries(t *testing.T) {
	h := buildWorld(t)
	const bound = 4
	probe := &boundCheckExchanger{inner: h.Net, t: t, bound: bound}
	probe.r = New(Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor,
		Exchanger: probe, Policy: compliantPolicy(),
		Now:             func() uint32 { return tNow },
		MaxCacheEntries: bound,
	})
	subs := testbed.Subdomains()
	if len(subs) <= bound {
		t.Fatalf("%d zones cannot overflow a bound of %d", len(subs), bound)
	}
	for _, sub := range subs {
		resolveA(t, probe.r, "q1.www."+sub.Label+".rfc9276-in-the-wild.com")
	}
	probe.check("the last resolution")
}

// boundCheckExchanger checks the resolver's cache sizes each time the
// resolver goes upstream.
type boundCheckExchanger struct {
	inner netsim.Exchanger
	t     *testing.T
	r     *Resolver
	bound int
}

func (x *boundCheckExchanger) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	x.check(q.Question().Name.String())
	return x.inner.Exchange(ctx, server, q)
}

func (x *boundCheckExchanger) check(at string) {
	x.t.Helper()
	if n := cacheLen(x.r.msgCache); n > x.bound {
		x.t.Fatalf("at %s: message cache holds %d entries, bound %d", at, n, x.bound)
	}
	if n := cacheLen(x.r.zoneCache); n > x.bound {
		x.t.Fatalf("at %s: zone-trust cache holds %d entries, bound %d", at, n, x.bound)
	}
	if n := cacheLen(x.r.cuts); n > x.bound {
		x.t.Fatalf("at %s: delegation cache holds %d entries, bound %d", at, n, x.bound)
	}
}

func cacheLen[K comparable, V any](c *ttlCache[K, V]) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

type countingExchanger struct {
	inner netsim.Exchanger
	count int
}

func (c *countingExchanger) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	c.count++
	return c.inner.Exchange(ctx, server, q)
}

func TestResolverHandleServesClients(t *testing.T) {
	h := buildWorld(t)
	r := newTestResolver(t, h, compliantPolicy())
	// Register the resolver as a host and query it through the network.
	raddr := netsim.Addr4(10, 53, 53, 53)
	h.Net.Register(raddr, r)
	q := dnswire.NewQuery(7, dnswire.MustParseName("x.valid.rfc9276-in-the-wild.com"), dnswire.TypeA, true)
	resp, err := h.Net.Exchange(context.Background(), raddr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNoError || !resp.Header.AuthenticatedData {
		t.Fatalf("rcode=%s ad=%v", resp.Header.RCode, resp.Header.AuthenticatedData)
	}
	if !resp.Header.RecursionAvailable {
		t.Fatal("RA not set")
	}
	// Without DO, DNSSEC records are stripped and AD can still be set
	// (RFC 4035 allows AD to non-DO clients; we keep it).
	q2 := dnswire.NewQuery(8, dnswire.MustParseName("y.valid.rfc9276-in-the-wild.com"), dnswire.TypeA, false)
	resp2, err := h.Net.Exchange(context.Background(), raddr, q2)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range resp2.Answers {
		if rr.Type() == dnswire.TypeRRSIG {
			t.Fatal("RRSIG leaked to non-DO client")
		}
	}
}

func TestEchoRABehaviour(t *testing.T) {
	h := buildWorld(t)
	p := compliantPolicy()
	p.EchoRA = true
	r := newTestResolver(t, h, p)
	raddr := netsim.Addr4(10, 53, 53, 54)
	h.Net.Register(raddr, r)
	q := dnswire.NewQuery(9, dnswire.MustParseName("z.valid.rfc9276-in-the-wild.com"), dnswire.TypeA, true)
	resp, err := h.Net.Exchange(context.Background(), raddr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RecursionAvailable {
		t.Fatal("EchoRA box set RA without it in the query")
	}
}

func TestTestbedProbeTranscript(t *testing.T) {
	h := buildWorld(t)
	r := newTestResolver(t, h, compliantPolicy())
	raddr := netsim.Addr4(10, 53, 53, 55)
	h.Net.Register(raddr, r)
	tr, err := testbed.ProbeResolver(context.Background(), h.Net, raddr, "probe-xyz")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Observations) != 50 { // 49 + it-2501-expired
		t.Fatalf("observations = %d", len(tr.Observations))
	}
	valid, _ := tr.Find("valid")
	if valid.RCode != dnswire.RCodeNoError || !valid.AD {
		t.Fatalf("valid: %+v", valid)
	}
	expired, _ := tr.Find("expired")
	if expired.RCode != dnswire.RCodeServFail {
		t.Fatalf("expired: %+v", expired)
	}
	it150, _ := tr.Find("it-150")
	if it150.RCode != dnswire.RCodeNXDomain || !it150.AD {
		t.Fatalf("it-150: %+v", it150)
	}
	it151, _ := tr.Find("it-151")
	if it151.RCode != dnswire.RCodeNXDomain || it151.AD {
		t.Fatalf("it-151: %+v", it151)
	}
}

func TestSubdomainsCount(t *testing.T) {
	subs := testbed.Subdomains()
	if len(subs) != 50 {
		t.Fatalf("%d subdomains, want 50 (paper's 49 + it-2501-expired)", len(subs))
	}
	seen := map[string]bool{}
	for _, s := range subs {
		if seen[s.Label] {
			t.Fatalf("duplicate %s", s.Label)
		}
		seen[s.Label] = true
	}
	for _, want := range []string{"valid", "expired", "it-1", "it-25", "it-50", "it-500", "it-51", "it-101", "it-151", "it-2501-expired"} {
		if !seen[want] {
			t.Fatalf("missing %s", want)
		}
	}
}
