package resolver

import (
	"context"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/nsec3"
	"repro/internal/testbed"
	"repro/internal/zone"
)

// buildCNAMEWorld stands up root + an "alias.test" zone holding a CNAME
// into "target.test", which signs NSEC3 at iters iterations — the
// statewalk cname-chain topology reduced to a regression fixture. The
// www alias targets a missing name; the data alias targets
// www.target.test, which holds only an A record.
func buildCNAMEWorld(t testing.TB, iters uint16) *testbed.Hierarchy {
	t.Helper()
	b := testbed.NewBuilder(tInception, tExpiration)
	b.AddZone(testbed.ZoneSpec{
		Apex:   dnswire.Root,
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC},
		Server: netsim.Addr4(198, 41, 0, 4),
	})
	b.AddZone(testbed.ZoneSpec{
		Apex:   dnswire.MustParseName("test"),
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC3},
		Server: netsim.Addr4(192, 5, 6, 53),
	})
	leaf := netsim.Addr4(203, 0, 113, 99)
	b.AddZone(testbed.ZoneSpec{
		Apex: dnswire.MustParseName("alias.test"), Server: leaf,
		Sign: zone.SignConfig{Denial: zone.DenialNSEC3},
		Populate: func(z *zone.Zone) {
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("www"), Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.CNAME{Target: dnswire.MustParseName("gone.www.target.test")}})
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("data"), Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.CNAME{Target: dnswire.MustParseName("www.target.test")}})
		},
	})
	b.AddZone(testbed.ZoneSpec{
		Apex: dnswire.MustParseName("target.test"), Server: leaf,
		Sign: zone.SignConfig{Denial: zone.DenialNSEC3, NSEC3: nsec3.Params{Iterations: iters}},
		Populate: func(z *zone.Zone) {
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("www"), Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.A{Addr: leaf.Addr()}})
		},
	})
	h, err := b.Build(netsim.NewNetwork(1))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCNAMEChaseServfailKeepsChainedEDE: when the chase target's denial
// exceeds the ServfailLimit, the SERVFAIL returned for the alias owner
// must still carry the iteration-limit EDE the target produced (found
// by statewalk's cname-chain × servfail-profile cells: the chase used
// to return a bare SERVFAIL, dropping the EDE).
func TestCNAMEChaseServfailKeepsChainedEDE(t *testing.T) {
	h := buildCNAMEWorld(t, 151)
	p := Policy{
		Name: "test-servfail", Validate: true,
		InsecureLimit: NoLimit, ServfailLimit: 150,
		VerifyInsecureNSEC3: true,
		EDE:                 dnswire.EDEUnsupportedNSEC3Iter,
	}
	res := resolveA(t, newTestResolver(t, h, p), "www.alias.test")
	if res.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode=%s, want SERVFAIL", res.RCode)
	}
	if len(res.EDE) == 0 || res.EDE[0].Code != dnswire.EDEUnsupportedNSEC3Iter {
		t.Fatalf("EDE=%v, want the chained unsupported-iterations code", res.EDE)
	}
}

// TestCNAMEChaseNXDOMAINRespectsNoNegativeAD: an alias chain ending in
// NXDOMAIN is a negative answer, so a NoNegativeAD profile must strip
// AD even though the first hop was a positive CNAME (found by
// statewalk: the strip only consulted the pre-chase RCODE).
func TestCNAMEChaseNXDOMAINRespectsNoNegativeAD(t *testing.T) {
	h := buildCNAMEWorld(t, 0)
	p := compliantPolicy()
	p.NoNegativeAD = true
	res := resolveA(t, newTestResolver(t, h, p), "www.alias.test")
	if res.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode=%s, want NXDOMAIN", res.RCode)
	}
	if res.AD {
		t.Fatal("AD set on a post-chase NXDOMAIN under NoNegativeAD")
	}
	// The same chain keeps AD when the profile doesn't strip it.
	res = resolveA(t, newTestResolver(t, h, compliantPolicy()), "www.alias.test")
	if res.RCode != dnswire.RCodeNXDomain || !res.AD {
		t.Fatalf("control: rcode=%s ad=%v, want authenticated NXDOMAIN", res.RCode, res.AD)
	}
}

// TestCNAMEChaseNODATARespectsNoNegativeAD: an alias chain ending in
// NODATA is a negative answer too, so a NoNegativeAD profile must strip
// AD from it as it does from a direct NODATA (the chase used to re-check
// only the post-chase RCODE for NXDOMAIN).
func TestCNAMEChaseNODATARespectsNoNegativeAD(t *testing.T) {
	h := buildCNAMEWorld(t, 0)
	qname := dnswire.MustParseName("data.alias.test")
	p := compliantPolicy()
	p.NoNegativeAD = true
	res, err := newTestResolver(t, h, p).Resolve(context.Background(), qname, dnswire.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNoError || hasType(res.Answers, dnswire.MustParseName("www.target.test"), dnswire.TypeTXT) {
		t.Fatalf("rcode=%s answers=%v, want NODATA at the target", res.RCode, res.Answers)
	}
	if res.AD || res.Status != StatusSecure {
		t.Fatalf("ad=%v status=%s, want a secure chain without AD under NoNegativeAD", res.AD, res.Status)
	}
	// Control: the same chain keeps AD when the profile doesn't strip it.
	res, err = newTestResolver(t, h, compliantPolicy()).Resolve(context.Background(), qname, dnswire.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNoError || !res.AD {
		t.Fatalf("control: rcode=%s ad=%v, want authenticated NODATA", res.RCode, res.AD)
	}
}

// TestNodataRespectsNoNegativeAD: Policy.NoNegativeAD documents
// "negative responses", which includes NODATA, not just NXDOMAIN (found
// by statewalk's nodata × ad-stripping-forwarder cells).
func TestNodataRespectsNoNegativeAD(t *testing.T) {
	h := buildCNAMEWorld(t, 0)
	p := compliantPolicy()
	p.NoNegativeAD = true
	r := newTestResolver(t, h, p)
	res, err := r.Resolve(context.Background(), dnswire.MustParseName("www.target.test"), dnswire.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNoError || len(res.Answers) != 0 {
		t.Fatalf("rcode=%s answers=%d, want NODATA", res.RCode, len(res.Answers))
	}
	if res.AD {
		t.Fatal("AD set on NODATA under NoNegativeAD")
	}
	// Control: the validated NODATA keeps AD without the policy.
	res, err = newTestResolver(t, h, compliantPolicy()).Resolve(
		context.Background(), dnswire.MustParseName("www.target.test"), dnswire.TypeTXT)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AD {
		t.Fatal("control: validated NODATA lost AD")
	}
}
