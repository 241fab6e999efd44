package resolver

import (
	"context"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/nsec3"
	"repro/internal/testbed"
	"repro/internal/zone"
)

// buildTripleWorld stands up root + an NSEC3 "test" TLD holding:
//   - target.test (iterations 0): www A, and a wildcard *.wild;
//   - high.test (iterations 151, above every limit the pinned profiles
//     set): www A;
//   - alias.test: CNAMEs into both;
//   - lame.test: delegated to a server that does not host it.
func buildTripleWorld(t testing.TB) *testbed.Hierarchy {
	t.Helper()
	b := testbed.NewBuilder(tInception, tExpiration)
	leaf := netsim.Addr4(203, 0, 113, 77)
	b.AddZone(testbed.ZoneSpec{
		Apex:   dnswire.Root,
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC},
		Server: netsim.Addr4(198, 41, 0, 4),
	})
	b.AddZone(testbed.ZoneSpec{
		Apex: dnswire.MustParseName("test"),
		Sign: zone.SignConfig{Denial: zone.DenialNSEC3},
		Populate: func(z *zone.Zone) {
			lame := z.Apex.MustChild("lame")
			z.MustAdd(dnswire.RR{Name: lame, Class: dnswire.ClassIN, TTL: 3600,
				Data: dnswire.NS{Host: lame.MustChild("ns")}})
			z.MustAdd(dnswire.RR{Name: lame.MustChild("ns"), Class: dnswire.ClassIN, TTL: 3600,
				Data: dnswire.A{Addr: leaf.Addr()}})
		},
		Server: netsim.Addr4(192, 5, 6, 53),
	})
	www := dnswire.A{Addr: netip.MustParseAddr("192.0.2.7")}
	b.AddZone(testbed.ZoneSpec{
		Apex: dnswire.MustParseName("target.test"), Server: leaf,
		Sign: zone.SignConfig{Denial: zone.DenialNSEC3},
		Populate: func(z *zone.Zone) {
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("www"), Class: dnswire.ClassIN, TTL: 300, Data: www})
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("wild").Wildcard(), Class: dnswire.ClassIN, TTL: 300, Data: www})
		},
	})
	b.AddZone(testbed.ZoneSpec{
		Apex: dnswire.MustParseName("high.test"), Server: leaf,
		Sign: zone.SignConfig{Denial: zone.DenialNSEC3, NSEC3: nsec3.Params{Iterations: 151}},
		Populate: func(z *zone.Zone) {
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("www"), Class: dnswire.ClassIN, TTL: 300, Data: www})
		},
	})
	b.AddZone(testbed.ZoneSpec{
		Apex: dnswire.MustParseName("alias.test"), Server: leaf,
		Sign: zone.SignConfig{Denial: zone.DenialNSEC3},
		Populate: func(z *zone.Zone) {
			for _, cname := range [][2]string{
				{"a", "www.target.test"},
				{"nx", "gone.www.target.test"},
				{"high", "gone.www.high.test"},
			} {
				z.MustAdd(dnswire.RR{Name: z.Apex.MustChild(cname[0]), Class: dnswire.ClassIN, TTL: 300,
					Data: dnswire.CNAME{Target: dnswire.MustParseName(cname[1])}})
			}
		},
	})
	h, err := b.Build(netsim.NewNetwork(1))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// triple is what TestTriples pins per (profile, shape): the (RCODE,
// AD, EDE) triple a client sees, plus the security status behind it.
type triple struct {
	rcode  dnswire.RCode
	status SecurityStatus
	ad     bool
	ede    []dnswire.EDE
}

// The profiles TestTriples crosses with its shapes.
const (
	pCompliant = iota // insecure above 150, EDE 27
	pNoNegAD          // the same, AD stripped from negative answers
	pInsecure         // insecure above 100, EDE 5 with text
	pServfail         // SERVFAIL above 150, EDE 27 with text
	pNonValidating
	pCD // compliant, queried with the CD bit
	nProfiles
)

// TestTriples pins the (RCODE, AD, EDE) triple and status of every
// response shape under each profile kind: the classification the
// paper's Figure 3 rests on. The CNAME chain ending in NODATA is left
// out for the NoNegativeAD profile; TestCNAMEChaseNODATARespectsNoNegativeAD
// covers it.
func TestTriples(t *testing.T) {
	h := buildTripleWorld(t)
	named := func(name string, p Policy) Policy { p.Name = name; return p }
	noNegAD := compliantPolicy()
	noNegAD.NoNegativeAD = true
	profiles := [nProfiles]Policy{
		pCompliant: named("compliant", compliantPolicy()),
		pNoNegAD:   named("no-negative-ad", noNegAD),
		pInsecure: {
			Name: "insecure-limit", Validate: true,
			InsecureLimit: 100, ServfailLimit: NoLimit,
			VerifyInsecureNSEC3: true,
			EDE:                 dnswire.EDEDNSSECIndeterminate, EDEText: "insecure limit",
		},
		pServfail: {
			Name: "servfail-limit", Validate: true,
			InsecureLimit: NoLimit, ServfailLimit: 150,
			VerifyInsecureNSEC3: true,
			EDE:                 dnswire.EDEUnsupportedNSEC3Iter, EDEText: "servfail limit",
		},
		pNonValidating: {Name: "non-validating", InsecureLimit: NoLimit, ServfailLimit: NoLimit},
		pCD:            named("cd", compliantPolicy()),
	}

	var (
		ede27      = []dnswire.EDE{{Code: dnswire.EDEUnsupportedNSEC3Iter}}
		ede5Text   = []dnswire.EDE{{Code: dnswire.EDEDNSSECIndeterminate, Text: "insecure limit"}}
		ede27Text  = []dnswire.EDE{{Code: dnswire.EDEUnsupportedNSEC3Iter, Text: "servfail limit"}}
		noError    = dnswire.RCodeNoError
		nxDomain   = dnswire.RCodeNXDomain
		servFail   = dnswire.RCodeServFail
		secureAD   = func(rc dnswire.RCode) triple { return triple{rcode: rc, status: StatusSecure, ad: true} }
		secureNoAD = func(rc dnswire.RCode) triple { return triple{rcode: rc, status: StatusSecure} }
		unchecked  = func(rc dnswire.RCode) triple { return triple{rcode: rc, status: StatusIndeterminate} }
		lame       = triple{rcode: servFail, status: StatusBogus}
	)
	// plain is a shape every validating profile answers the same way.
	plain := func(rc dnswire.RCode, noNegAD triple) [nProfiles]triple {
		return [nProfiles]triple{
			pCompliant: secureAD(rc), pNoNegAD: noNegAD, pInsecure: secureAD(rc), pServfail: secureAD(rc),
			pNonValidating: unchecked(rc), pCD: unchecked(rc),
		}
	}
	// aboveLimit is an NXDOMAIN whose denial is at 151 iterations.
	aboveLimit := [nProfiles]triple{
		pCompliant:     {rcode: nxDomain, status: StatusInsecure, ede: ede27},
		pNoNegAD:       {rcode: nxDomain, status: StatusInsecure, ede: ede27},
		pInsecure:      {rcode: nxDomain, status: StatusInsecure, ede: ede5Text},
		pServfail:      {rcode: servFail, status: StatusBogus, ede: ede27Text},
		pNonValidating: unchecked(nxDomain),
		pCD:            unchecked(nxDomain),
	}

	shapes := []struct {
		name  string
		qname string
		qtype dnswire.Type
		want  [nProfiles]triple
	}{
		{"positive", "www.target.test", dnswire.TypeA, plain(noError, secureAD(noError))},
		{"nxdomain", "gone.www.target.test", dnswire.TypeA, plain(nxDomain, secureNoAD(nxDomain))},
		{"nodata", "www.target.test", dnswire.TypeTXT, plain(noError, secureNoAD(noError))},
		{"wildcard", "x.wild.target.test", dnswire.TypeA, plain(noError, secureAD(noError))},
		{"nxdomain-above-limit", "gone.www.high.test", dnswire.TypeA, aboveLimit},
		{"cname-a", "a.alias.test", dnswire.TypeA, plain(noError, secureAD(noError))},
		{"cname-nxdomain", "nx.alias.test", dnswire.TypeA, plain(nxDomain, secureNoAD(nxDomain))},
		{"cname-above-limit", "high.alias.test", dnswire.TypeA, aboveLimit},
		{"cname-nodata", "a.alias.test", dnswire.TypeTXT, plain(noError, triple{})},
		{"lame", "www.lame.test", dnswire.TypeA, [nProfiles]triple{lame, lame, lame, lame, lame, lame}},
	}
	ctx := context.Background()
	for pi, p := range profiles {
		cd := pi == pCD
		for _, s := range shapes {
			if pi == pNoNegAD && s.name == "cname-nodata" {
				continue
			}
			t.Run(p.Name+"/"+s.name, func(t *testing.T) {
				r := newTestResolver(t, h, p)
				res, err := r.ResolveCD(ctx, dnswire.MustParseName(s.qname), s.qtype, cd)
				if err != nil {
					t.Fatal(err)
				}
				checkTriple(t, res, s.want[pi])
			})
		}
	}
}

func checkTriple(t *testing.T, res *Result, want triple) {
	t.Helper()
	got := triple{rcode: res.RCode, status: res.Status, ad: res.AD, ede: res.EDE}
	if got.rcode != want.rcode || got.status != want.status || got.ad != want.ad ||
		len(got.ede) != len(want.ede) || (len(want.ede) > 0 && !reflect.DeepEqual(got.ede, want.ede)) {
		t.Fatalf("got rcode=%s status=%s ad=%v ede=%v, want rcode=%s status=%s ad=%v ede=%v",
			got.rcode, got.status, got.ad, got.ede, want.rcode, want.status, want.ad, want.ede)
	}
}
