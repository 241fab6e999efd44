package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/nsec3"
	"repro/internal/obs"
	"repro/internal/testbed"
	"repro/internal/zone"
)

// buildMixedWorld adds, next to the rfc9276 testbed, an NSEC-signed
// zone, an unsigned zone, and a CNAME-bearing zone under "com".
func buildMixedWorld(t testing.TB) *testbed.Hierarchy {
	t.Helper()
	b := testbed.NewBuilder(tInception, tExpiration)
	testbed.InstallWorld(b)
	b.AddZone(testbed.ZoneSpec{
		Apex: dnswire.MustParseName("nsec-zone.com"),
		Populate: func(z *zone.Zone) {
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("www"), Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.21")}})
		},
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC},
		Server: netsim.Addr4(203, 0, 113, 21),
	})
	b.AddZone(testbed.ZoneSpec{
		Apex: dnswire.MustParseName("unsigned.com"),
		Populate: func(z *zone.Zone) {
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("www"), Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.22")}})
		},
		Unsigned: true,
		Server:   netsim.Addr4(203, 0, 113, 22),
	})
	b.AddZone(testbed.ZoneSpec{
		Apex: dnswire.MustParseName("alias.com"),
		Populate: func(z *zone.Zone) {
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("cn"), Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.CNAME{Target: dnswire.MustParseName("www.nsec-zone.com")}})
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("cn2"), Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.CNAME{Target: dnswire.MustParseName("www.nsec-zone.com")}})
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("loop"), Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.CNAME{Target: dnswire.MustParseName("loop.alias.com")}})
		},
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC3, NSEC3: nsec3.Params{Iterations: 2}},
		Server: netsim.Addr4(203, 0, 113, 23),
	})
	h, err := b.Build(netsim.NewNetwork(13))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestResolveNSECZoneSecure(t *testing.T) {
	h := buildMixedWorld(t)
	r := newTestResolver(t, h, compliantPolicy())
	// Positive.
	res := resolveA(t, r, "www.nsec-zone.com")
	if res.RCode != dnswire.RCodeNoError || !res.AD {
		t.Fatalf("positive: rcode=%s ad=%v status=%s", res.RCode, res.AD, res.Status)
	}
	// Negative, proven by NSEC.
	res = resolveA(t, r, "missing.nsec-zone.com")
	if res.RCode != dnswire.RCodeNXDomain || !res.AD {
		t.Fatalf("negative: rcode=%s ad=%v status=%s", res.RCode, res.AD, res.Status)
	}
}

func TestResolveUnsignedZoneInsecure(t *testing.T) {
	h := buildMixedWorld(t)
	r := newTestResolver(t, h, compliantPolicy())
	res := resolveA(t, r, "www.unsigned.com")
	if res.RCode != dnswire.RCodeNoError || res.AD {
		t.Fatalf("rcode=%s ad=%v", res.RCode, res.AD)
	}
	if res.Status != StatusInsecure {
		t.Fatalf("status=%s, want INSECURE (no DS at delegation)", res.Status)
	}
	// Negative answers from unsigned zones are insecure NXDOMAINs.
	res = resolveA(t, r, "nothing.unsigned.com")
	if res.RCode != dnswire.RCodeNXDomain || res.AD {
		t.Fatalf("negative: rcode=%s ad=%v", res.RCode, res.AD)
	}
}

func TestResolveCNAMEChase(t *testing.T) {
	h := buildMixedWorld(t)
	r := newTestResolver(t, h, compliantPolicy())
	res := resolveA(t, r, "cn.alias.com")
	if res.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode=%s", res.RCode)
	}
	var sawCNAME, sawA bool
	for _, rr := range res.Answers {
		switch rr.Data.(type) {
		case dnswire.CNAME:
			sawCNAME = true
		case dnswire.A:
			sawA = true
		}
	}
	if !sawCNAME || !sawA {
		t.Fatalf("chain incomplete: %v", res.Answers)
	}
	if !res.AD {
		t.Fatalf("secure chain lost AD (status=%s)", res.Status)
	}
}

// perServerExchanger counts the upstream queries each server is sent.
type perServerExchanger struct {
	inner netsim.Exchanger
	sent  map[netip.AddrPort]int
}

func (c *perServerExchanger) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	c.sent[server]++
	return c.inner.Exchange(ctx, server, q)
}

// TestCNAMEChaseSharesTheTarget: the chase goes through the cache door,
// so a second alias of a target already resolved asks the target's
// servers nothing and still returns the whole, secure chain.
func TestCNAMEChaseSharesTheTarget(t *testing.T) {
	h := buildMixedWorld(t)
	counter := &perServerExchanger{inner: h.Net, sent: make(map[netip.AddrPort]int)}
	r := New(Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor, Exchanger: counter,
		Policy: compliantPolicy(), Now: func() uint32 { return tNow },
	})
	target := netsim.Addr4(203, 0, 113, 21) // nsec-zone.com
	first := resolveA(t, r, "cn.alias.com")
	once := counter.sent[target]
	if once == 0 {
		t.Fatal("the first alias resolved its target without asking the target's server")
	}
	second := resolveA(t, r, "cn2.alias.com")
	if again := counter.sent[target] - once; again != 0 {
		t.Errorf("the second alias cost the target's server %d more queries (the first cost %d), want 0", again, once)
	}
	if second.RCode != dnswire.RCodeNoError || !second.AD || len(second.Answers) != len(first.Answers) {
		t.Fatalf("second alias: rcode=%s ad=%v answers=%v, want the first's shape %v", second.RCode, second.AD, second.Answers, first.Answers)
	}
	if c, ok := second.Answers[0].Data.(dnswire.CNAME); !ok || second.Answers[0].Name != "cn2.alias.com." || c.Target != "www.nsec-zone.com." {
		t.Fatalf("second alias leads with %v, want its own CNAME", second.Answers[0])
	}
}

func TestResolveCNAMELoopServfails(t *testing.T) {
	h := buildMixedWorld(t)
	r := newTestResolver(t, h, compliantPolicy())
	res := resolveA(t, r, "loop.alias.com")
	if res.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode=%s, want SERVFAIL on CNAME loop", res.RCode)
	}
}

func TestResolveCDBitSkipsValidation(t *testing.T) {
	h := buildMixedWorld(t)
	r := newTestResolver(t, h, compliantPolicy())
	// expired normally SERVFAILs; with CD the raw data flows through.
	qname := dnswire.MustParseName("probe.expired.rfc9276-in-the-wild.com")
	res, err := r.ResolveCD(context.Background(), qname, dnswire.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNoError {
		t.Fatalf("CD query rcode=%s, want NOERROR", res.RCode)
	}
	if res.AD {
		t.Fatal("CD response must not claim AD")
	}
	// Without CD: SERVFAIL, cached independently.
	res2, err := r.Resolve(context.Background(), qname, dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res2.RCode != dnswire.RCodeServFail {
		t.Fatalf("non-CD rcode=%s", res2.RCode)
	}
}

// TestResolveSurvivesPacketLoss resolves distinct names at 15 % loss,
// each on a fresh resolver, so every resolve goes upstream. One during
// which no packet was lost must return the triple the lossless network
// gives. One that lost packets returns that triple (its retries got
// through) or SERVFAIL (they did not), and both must occur.
func TestResolveSurvivesPacketLoss(t *testing.T) {
	h := buildMixedWorld(t)
	reg := obs.NewRegistry()
	h.Net.Instrument(reg)
	lost := reg.Counter("netsim_packets_lost_total", "")
	var qnames []dnswire.Name
	for i := 0; i < 20; i++ {
		for _, zone := range []string{"nsec-zone.com", "alias.com", "unsigned.com"} {
			qnames = append(qnames, dnswire.MustParseName(fmt.Sprintf("n%d.%s", i, zone)))
		}
	}
	qnames = append(qnames, dnswire.MustParseName("www.nsec-zone.com"), dnswire.MustParseName("cn.alias.com"))
	resolve := func(qname dnswire.Name) triple {
		t.Helper()
		res, err := newTestResolver(t, h, compliantPolicy()).Resolve(context.Background(), qname, dnswire.TypeA)
		if err != nil {
			t.Fatalf("%s: %v", qname, err)
		}
		return triple{rcode: res.RCode, status: res.Status, ad: res.AD, ede: res.EDE}
	}
	clean := make([]triple, len(qnames))
	for i, qn := range qnames {
		clean[i] = resolve(qn)
	}
	h.Net.LossRate = 0.15
	survived, failed := 0, 0
	for i, qn := range qnames {
		before := lost.Value()
		got := resolve(qn)
		switch {
		case reflect.DeepEqual(got, clean[i]):
			if lost.Value() != before {
				survived++
			}
		case lost.Value() == before:
			t.Errorf("%s: %+v with no packet lost, want %+v", qn, got, clean[i])
		case got.rcode == dnswire.RCodeServFail:
			failed++
		default:
			t.Errorf("%s: %+v after loss, want %+v or SERVFAIL", qn, got, clean[i])
		}
	}
	t.Logf("%d resolves: %d survived loss, %d failed under it, %d packets lost", len(qnames), survived, failed, lost.Value())
	if survived == 0 || failed == 0 {
		t.Fatalf("%d resolves survived loss and %d failed under it; want both", survived, failed)
	}
}

// sentQuery is one exchange a deadExchanger was asked for.
type sentQuery struct {
	server netip.AddrPort
	id     uint16
}

func (s sentQuery) String() string { return fmt.Sprintf("%s ID %d", s.server, s.id) }

// deadExchanger fails every exchange and records what it was sent.
type deadExchanger struct{ sent []sentQuery }

func (d *deadExchanger) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	d.sent = append(d.sent, sentQuery{server, q.Header.ID})
	return nil, errors.New("no answer")
}

// TestExchangeBudgetPerServer pins the resolver hop's retry budget:
// with every exchange failing, each root is asked exactly twice, in
// the roots' order, the second time under a new ID, and the resolve
// ends in SERVFAIL.
func TestExchangeBudgetPerServer(t *testing.T) {
	roots := []netip.AddrPort{netsim.Addr4(198, 41, 0, 4), netsim.Addr4(199, 9, 14, 201)}
	dead := &deadExchanger{}
	r := New(Config{Roots: roots, Exchanger: dead, Now: func() uint32 { return tNow }})
	res := resolveA(t, r, "www.example.com")
	if res.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode %s, want SERVFAIL", res.RCode)
	}
	if len(dead.sent) != 4 {
		t.Fatalf("%d exchanges %v, want 2 to each of 2 roots", len(dead.sent), dead.sent)
	}
	for i, s := range dead.sent {
		if want := roots[i/2]; s.server != want {
			t.Errorf("exchange %d went to %s, want %s", i, s.server, want)
		}
	}
	for i := 0; i < 4; i += 2 {
		if dead.sent[i].id == dead.sent[i+1].id {
			t.Errorf("%s asked twice under ID %d, want a new ID for the retry", dead.sent[i].server, dead.sent[i].id)
		}
	}
}

func TestResolveUnreachableRootsServfail(t *testing.T) {
	h := buildMixedWorld(t)
	r := New(Config{
		Roots:       []netip.AddrPort{netsim.Addr4(203, 0, 113, 99)},
		TrustAnchor: h.TrustAnchor,
		Exchanger:   h.Net,
		Policy:      compliantPolicy(),
		Now:         func() uint32 { return tNow },
	})
	res, err := r.Resolve(context.Background(), dnswire.MustParseName("www.nsec-zone.com"), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode=%s", res.RCode)
	}
}

func TestResolveDSQuery(t *testing.T) {
	h := buildMixedWorld(t)
	r := newTestResolver(t, h, compliantPolicy())
	res, err := r.Resolve(context.Background(), dnswire.MustParseName("nsec-zone.com"), dnswire.TypeDS)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNoError || !res.AD {
		t.Fatalf("DS query: rcode=%s ad=%v", res.RCode, res.AD)
	}
	var sawDS bool
	for _, rr := range res.Answers {
		if rr.Type() == dnswire.TypeDS {
			sawDS = true
		}
	}
	if !sawDS {
		t.Fatalf("no DS in answers: %v", res.Answers)
	}
}

func TestResolveNoNegativeADPolicy(t *testing.T) {
	h := buildMixedWorld(t)
	p := compliantPolicy()
	p.NoNegativeAD = true
	r := newTestResolver(t, h, p)
	// Positive answers keep AD…
	res := resolveA(t, r, "probe9.valid.rfc9276-in-the-wild.com")
	if !res.AD {
		t.Fatal("positive answer lost AD")
	}
	// …but validated NXDOMAINs are stripped.
	res = resolveA(t, r, "probe9.www.it-5.rfc9276-in-the-wild.com")
	if res.RCode != dnswire.RCodeNXDomain || res.AD {
		t.Fatalf("rcode=%s ad=%v", res.RCode, res.AD)
	}
	// And the zone is still treated as validated internally (expired
	// still SERVFAILs).
	res = resolveA(t, r, "probe9.expired.rfc9276-in-the-wild.com")
	if res.RCode != dnswire.RCodeServFail {
		t.Fatalf("expired rcode=%s", res.RCode)
	}
}

func TestOptOutInsecureDelegationUnderNSEC3Parent(t *testing.T) {
	// unsigned.com hangs off the opt-out NSEC3 "com" zone: the DS
	// denial travels through an opt-out span and the child must come
	// out insecure, not bogus.
	h := buildMixedWorld(t)
	r := newTestResolver(t, h, compliantPolicy())
	res := resolveA(t, r, "www.unsigned.com")
	if res.Status != StatusInsecure {
		t.Fatalf("status=%s", res.Status)
	}
}
