package authserver

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/nsec3"
	"repro/internal/zone"
)

const (
	tInception  = 1709251200
	tExpiration = 1711843200
)

func buildZone(t *testing.T, apex string, denial zone.DenialMode) *zone.Signed {
	t.Helper()
	s, err := rawZone(apex).Sign(zone.SignConfig{
		Denial: denial, NSEC3: nsec3.Params{Iterations: 3},
		Inception: tInception, Expiration: tExpiration,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rawZone(apex string) *zone.Zone {
	apexN := dnswire.MustParseName(apex)
	z := zone.New(apexN, 300)
	z.MustAdd(dnswire.RR{Name: apexN, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOA{
		MName: apexN.MustChild("ns"), RName: apexN.MustChild("hostmaster"),
		Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300,
	}})
	z.MustAdd(dnswire.RR{Name: apexN, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: apexN.MustChild("ns")}})
	z.MustAdd(dnswire.RR{Name: apexN.MustChild("ns"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.53")}})
	z.MustAdd(dnswire.RR{Name: apexN.MustChild("www"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	return z
}

func query(t *testing.T, s *Server, name string, qt dnswire.Type, do bool) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(1, dnswire.MustParseName(name), qt, do)
	resp := s.Handle(context.Background(), netip.MustParseAddrPort("10.0.0.1:5353"), q)
	if resp == nil {
		t.Fatal("nil response")
	}
	return resp
}

func TestHandlePositive(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	resp := query(t, s, "www.example.com", dnswire.TypeA, true)
	if resp.Header.RCode != dnswire.RCodeNoError || !resp.Header.Authoritative {
		t.Fatalf("rcode=%s aa=%v", resp.Header.RCode, resp.Header.Authoritative)
	}
	var hasA, hasSig bool
	for _, rr := range resp.Answers {
		switch rr.Type() {
		case dnswire.TypeA:
			hasA = true
		case dnswire.TypeRRSIG:
			hasSig = true
		}
	}
	if !hasA || !hasSig {
		t.Fatalf("answers = %v", resp.Answers)
	}
	// Same query without DO: no DNSSEC records anywhere.
	resp = query(t, s, "www.example.com", dnswire.TypeA, false)
	for _, rr := range append(resp.Answers, resp.Authority...) {
		switch rr.Type() {
		case dnswire.TypeRRSIG, dnswire.TypeNSEC3, dnswire.TypeNSEC:
			t.Fatalf("DNSSEC record %s without DO", rr.Type())
		}
	}
}

func TestHandleNXDOMAINWithProof(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	resp := query(t, s, "missing.example.com", dnswire.TypeA, true)
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %s", resp.Header.RCode)
	}
	set, err := nsec3.ExtractResponseSet(resp.Authority)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := set.VerifyNXDOMAIN(dnswire.MustParseName("missing.example.com")); err != nil {
		t.Fatal(err)
	}
}

// TestHandleFailedSignatureIsServFail: a zone signed on demand whose
// ZSK cannot sign answers SERVFAIL wherever an answer or a transfer
// needs a signature it cannot make, and answers the rest.
func TestHandleFailedSignatureIsServFail(t *testing.T) {
	sz, err := rawZone("example.com").SignOnDemand(zone.SignConfig{
		Denial: zone.DenialNSEC3, ZSK: &dnssec.KeyPair{Algorithm: 99, Flags: dnswire.DNSKEYFlagZone},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.AddZone(sz)
	s.SetTransferPolicy(sz.Zone.Apex, zone.TransferOpen)
	for _, c := range []struct {
		qname string
		qtype dnswire.Type
		do    bool
		want  dnswire.RCode
	}{
		{"www.example.com", dnswire.TypeA, true, dnswire.RCodeServFail},
		{"nope.example.com", dnswire.TypeA, true, dnswire.RCodeServFail},
		{"example.com", dnswire.TypeAXFR, false, dnswire.RCodeServFail},
		{"www.example.com", dnswire.TypeA, false, dnswire.RCodeNoError},
		{"example.com", dnswire.TypeDNSKEY, true, dnswire.RCodeNoError},
	} {
		resp := query(t, s, c.qname, c.qtype, c.do)
		if resp.Header.RCode != c.want || (c.want == dnswire.RCodeServFail && len(resp.Answers)+len(resp.Authority) > 0) {
			t.Errorf("%s %s do=%v: rcode %s with %d+%d records, want %s", c.qname, c.qtype, c.do,
				resp.Header.RCode, len(resp.Answers), len(resp.Authority), c.want)
		}
	}
}

func TestHandleRefusedOutOfZone(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	resp := query(t, s, "www.other.net", dnswire.TypeA, true)
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %s", resp.Header.RCode)
	}
}

func TestHandleNotImp(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	q := dnswire.NewQuery(1, dnswire.MustParseName("www.example.com"), dnswire.TypeA, false)
	q.Header.Opcode = dnswire.OpcodeUpdate
	resp := s.Handle(context.Background(), netip.MustParseAddrPort("10.0.0.1:1"), q)
	if resp.Header.RCode != dnswire.RCodeNotImp {
		t.Fatalf("rcode = %s", resp.Header.RCode)
	}
	// Non-IN class refused.
	q2 := dnswire.NewQuery(2, dnswire.MustParseName("www.example.com"), dnswire.TypeA, false)
	q2.Questions[0].Class = dnswire.ClassANY
	resp = s.Handle(context.Background(), netip.MustParseAddrPort("10.0.0.1:1"), q2)
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %s", resp.Header.RCode)
	}
}

func TestZoneForPicksDeepest(t *testing.T) {
	s := New()
	parent := buildZone(t, "example.com", zone.DenialNSEC3)
	child := buildZone(t, "sub.example.com", zone.DenialNSEC3)
	s.AddZone(parent)
	s.AddZone(child)
	sz, ok := s.ZoneFor(context.Background(), dnswire.MustParseName("www.sub.example.com"))
	if !ok || sz.Zone.Apex != "sub.example.com." {
		t.Fatalf("ZoneFor = %v, %v", sz, ok)
	}
	if got := s.Zones(); len(got) != 2 {
		t.Fatalf("Zones = %v", got)
	}
}

func TestDSQueryRoutedToParentZone(t *testing.T) {
	// When one server hosts both parent and child, a DS query for the
	// child apex must be answered from the parent.
	apexN := dnswire.MustParseName("example.com")
	z := zone.New(apexN, 300)
	z.MustAdd(dnswire.RR{Name: apexN, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOA{
		MName: apexN.MustChild("ns"), RName: apexN.MustChild("hostmaster"),
		Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300,
	}})
	z.MustAdd(dnswire.RR{Name: apexN, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: apexN.MustChild("ns")}})
	z.MustAdd(dnswire.RR{Name: apexN.MustChild("ns"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.53")}})
	// Delegation with DS for the child.
	sub := dnswire.MustParseName("sub.example.com")
	z.MustAdd(dnswire.RR{Name: sub, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: sub.MustChild("ns")}})
	z.MustAdd(dnswire.RR{Name: sub.MustChild("ns"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.54")}})
	z.MustAdd(dnswire.RR{Name: sub, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.DS{
		KeyTag: 1, Algorithm: dnswire.AlgECDSAP256SHA256,
		DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32),
	}})
	parent, err := z.Sign(zone.SignConfig{Denial: zone.DenialNSEC3, Inception: tInception, Expiration: tExpiration})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.AddZone(parent)
	s.AddZone(buildZone(t, "sub.example.com", zone.DenialNSEC3))
	resp := query(t, s, "sub.example.com", dnswire.TypeDS, true)
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) == 0 {
		t.Fatalf("DS query: rcode=%s answers=%d", resp.Header.RCode, len(resp.Answers))
	}
	if resp.Answers[0].Type() != dnswire.TypeDS {
		t.Fatalf("first answer %s", resp.Answers[0].Type())
	}
}

func TestQueryLog(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	s.Log = NewQueryLog(3)
	for i := 0; i < 5; i++ {
		from := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), 1000)
		q := dnswire.NewQuery(uint16(i), dnswire.MustParseName("www.example.com"), dnswire.TypeA, false)
		s.Handle(context.Background(), from, q)
	}
	entries := s.Log.Entries()
	if len(entries) != 3 {
		t.Fatalf("log kept %d entries, want 3 (bounded)", len(entries))
	}
	// The newest entries survive.
	if entries[2].From.Addr().As4()[3] != 4 {
		t.Fatalf("last entry from %s", entries[2].From)
	}
	srcs := s.Log.SourcesFor(func(n dnswire.Name) bool { return n == "www.example.com." })
	if len(srcs) != 3 {
		t.Fatalf("SourcesFor = %v", srcs)
	}

	// The ring's edges. Sources cycle over 4 addresses so that every one
	// repeats on both sides of the wrap seam.
	src := func(i int) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 1, byte(i % 4)}), 53)
	}
	name := func(i int) dnswire.Name { return dnswire.MustParseName(fmt.Sprintf("n%d.example.com", i)) }
	const max = 10
	const total = max*2 + max/2
	l := NewQueryLog(max)
	for i := 0; i < total; i++ {
		l.Record(src(i), name(i))
	}
	got := l.Entries()
	if len(got) != max {
		t.Fatalf("after %d records the log holds %d entries, want %d", total, len(got), max)
	}
	for j, e := range got {
		if i := total - max + j; e.QName != name(i) || e.From != src(i) {
			t.Fatalf("Entries()[%d] = %v, want record %d (arrival order, oldest first)", j, e, i)
		}
	}
	// total-max = 15 is the oldest survivor, so first-seen order starts
	// at source 15%4 = 3 and runs across the seam: 3, 0, 1, 2.
	all := l.SourcesFor(func(dnswire.Name) bool { return true })
	if want := []netip.AddrPort{src(3), src(0), src(1), src(2)}; !slices.Equal(all, want) {
		t.Fatalf("SourcesFor across the seam = %v, want %v", all, want)
	}

	unbounded := NewQueryLog(0)
	for i := 0; i < 1000; i++ {
		unbounded.Record(src(i), name(i))
	}
	if got := unbounded.Entries(); len(got) != 1000 || got[0].QName != name(0) || got[999].QName != name(999) {
		t.Fatalf("NewQueryLog(0) kept %d entries, want all 1000 in order", len(got))
	}

	if !raceEnabled {
		from, qname := src(0), name(0)
		if a := testing.AllocsPerRun(100, func() { l.Record(from, qname) }); a != 0 {
			t.Fatalf("Record on a full log: %v allocs, want 0", a)
		}
	}
}
