package zone

import (
	"net/netip"
	"strings"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
)

const (
	tInception  = 1709251200
	tExpiration = 1711843200
)

func mustA(ip string) dnswire.A  { return dnswire.A{Addr: netip.MustParseAddr(ip)} }
func name(s string) dnswire.Name { return dnswire.MustParseName(s) }
func soaData() dnswire.SOA {
	return dnswire.SOA{
		MName: name("ns1.example.com"), RName: name("hostmaster.example.com"),
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}
}

// testZone builds the canonical test zone:
//
//	example.com        SOA NS
//	www.example.com    A
//	mail.example.com   A MX
//	a.b.example.com    TXT        (b.example.com is an ENT)
//	*.wild.example.com A          (wild.example.com is an ENT)
//	sub.example.com    NS         (insecure delegation + glue)
//	ns.sub.example.com A          (glue)
//	alias.example.com  CNAME
func testZone(t testing.TB) *Zone {
	t.Helper()
	z := New(name("example.com"), 300)
	z.MustAdd(dnswire.RR{Name: z.Apex, Class: dnswire.ClassIN, TTL: 3600, Data: soaData()})
	z.MustAdd(dnswire.RR{Name: z.Apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: name("ns1.example.com")}})
	z.MustAdd(dnswire.RR{Name: name("ns1.example.com"), Class: dnswire.ClassIN, TTL: 300, Data: mustA("192.0.2.53")})
	z.MustAdd(dnswire.RR{Name: name("www.example.com"), Class: dnswire.ClassIN, TTL: 300, Data: mustA("192.0.2.1")})
	z.MustAdd(dnswire.RR{Name: name("mail.example.com"), Class: dnswire.ClassIN, TTL: 300, Data: mustA("192.0.2.2")})
	z.MustAdd(dnswire.RR{Name: name("mail.example.com"), Class: dnswire.ClassIN, TTL: 300, Data: dnswire.MX{Preference: 10, Host: name("mail.example.com")}})
	z.MustAdd(dnswire.RR{Name: name("a.b.example.com"), Class: dnswire.ClassIN, TTL: 300, Data: dnswire.TXT{Strings: []string{"deep"}}})
	z.MustAdd(dnswire.RR{Name: name("*.wild.example.com"), Class: dnswire.ClassIN, TTL: 300, Data: mustA("192.0.2.77")})
	z.MustAdd(dnswire.RR{Name: name("sub.example.com"), Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: name("ns.sub.example.com")}})
	z.MustAdd(dnswire.RR{Name: name("ns.sub.example.com"), Class: dnswire.ClassIN, TTL: 300, Data: mustA("192.0.2.100")})
	z.MustAdd(dnswire.RR{Name: name("alias.example.com"), Class: dnswire.ClassIN, TTL: 300, Data: dnswire.CNAME{Target: name("www.example.com")}})
	return z
}

func signTestZone(t testing.TB, cfg SignConfig) *Signed {
	t.Helper()
	if cfg.Inception == 0 {
		cfg.Inception, cfg.Expiration = tInception, tExpiration
	}
	s, err := testZone(t).Sign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAddRejectsOutOfZone(t *testing.T) {
	z := New(name("example.com"), 300)
	err := z.Add(dnswire.RR{Name: name("example.org"), Class: dnswire.ClassIN, TTL: 1, Data: mustA("192.0.2.1")})
	if err == nil {
		t.Fatal("out-of-zone record accepted")
	}
}

func TestDelegationClassification(t *testing.T) {
	z := testZone(t)
	if !z.IsDelegation(name("sub.example.com")) {
		t.Fatal("sub not a delegation")
	}
	if z.IsDelegation(z.Apex) {
		t.Fatal("apex wrongly a delegation")
	}
	if !z.IsGlue(name("ns.sub.example.com")) {
		t.Fatal("glue not detected")
	}
	if z.IsGlue(name("ns1.example.com")) {
		t.Fatal("in-zone host wrongly glue")
	}
	cut, ok := z.DelegationPoint(name("deep.below.sub.example.com"))
	if !ok || cut != name("sub.example.com") {
		t.Fatalf("DelegationPoint = %q, %v", cut, ok)
	}
	if _, ok := z.DelegationPoint(name("www.example.com")); ok {
		t.Fatal("www wrongly under a cut")
	}
	// An (occluded) NS RRset below a cut does not move the cut: the one
	// nearest the apex wins, at every depth, and finding it allocates
	// nothing.
	z.MustAdd(dnswire.RR{Name: name("below.sub.example.com"), Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: name("ns.sub.example.com")}})
	for _, q := range []string{"sub.example.com", "below.sub.example.com", "deep.below.sub.example.com"} {
		if cut, ok := z.DelegationPoint(name(q)); !ok || cut != name("sub.example.com") {
			t.Fatalf("DelegationPoint(%s) = %q, %v", q, cut, ok)
		}
	}
	if _, ok := z.DelegationPoint(z.Apex); ok {
		t.Fatal("apex wrongly under a cut")
	}
	deep := name("deep.below.sub.example.com")
	if n := testing.AllocsPerRun(100, func() { z.DelegationPoint(deep) }); n != 0 {
		t.Fatalf("DelegationPoint allocates %.1f times per run, want 0", n)
	}
}

func TestAuthoritativeNamesIncludesENTsExcludesGlue(t *testing.T) {
	z := testZone(t)
	names := z.AuthoritativeNames()
	if _, ok := names[name("b.example.com")]; !ok {
		t.Fatal("ENT b.example.com missing")
	}
	if _, ok := names[name("wild.example.com")]; !ok {
		t.Fatal("ENT wild.example.com missing")
	}
	if _, ok := names[name("ns.sub.example.com")]; ok {
		t.Fatal("glue included")
	}
	if bm, ok := names[name("sub.example.com")]; !ok {
		t.Fatal("delegation point missing")
	} else if !bm.Contains(dnswire.TypeNS) || bm.Contains(dnswire.TypeA) {
		t.Fatalf("delegation bitmap = %v", bm)
	}
	// ENT owns nothing.
	if bm := names[name("b.example.com")]; len(bm) != 0 {
		t.Fatalf("ENT bitmap = %v", bm)
	}
}

func TestSignRequiresSOA(t *testing.T) {
	z := New(name("nosoa.example"), 300)
	if _, err := z.Sign(SignConfig{}); err != ErrNoSOA {
		t.Fatalf("err = %v", err)
	}
}

func TestSignNSEC3PublishesParamAndChain(t *testing.T) {
	s := signTestZone(t, SignConfig{
		Denial: DenialNSEC3,
		NSEC3:  nsec3.Params{Iterations: 1, Salt: []byte{0xAB, 0xCD}},
	})
	params := s.Zone.Lookup(s.Zone.Apex, dnswire.TypeNSEC3PARAM)
	if len(params) != 1 {
		t.Fatalf("NSEC3PARAM count %d", len(params))
	}
	p := params[0].Data.(dnswire.NSEC3PARAM)
	if p.Iterations != 1 || len(p.Salt) != 2 {
		t.Fatalf("NSEC3PARAM = %+v", p)
	}
	if s.Chain() == nil || len(s.Chain().Records) == 0 {
		t.Fatal("no NSEC3 chain")
	}
	// Every chain record has an RRSIG.
	for _, rec := range s.Chain().Records {
		rr := s.Chain().RRFor(rec, 300)
		if len(s.MustRRSIGs(t, rr.Name, dnswire.TypeNSEC3)) == 0 {
			t.Fatalf("NSEC3 at %s unsigned", rr.Name)
		}
	}
}

func TestSignedLookupSuccess(t *testing.T) {
	s := signTestZone(t, SignConfig{Denial: DenialNSEC3})
	a, err := s.Evaluate(name("www.example.com"), dnswire.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != KindSuccess || a.RCode != dnswire.RCodeNoError {
		t.Fatalf("kind=%s rcode=%s", a.Kind, a.RCode)
	}
	var hasA, hasSig bool
	for _, rr := range a.Answer {
		switch rr.Type() {
		case dnswire.TypeA:
			hasA = true
		case dnswire.TypeRRSIG:
			hasSig = true
		}
	}
	if !hasA || !hasSig {
		t.Fatalf("answer incomplete: %v", a.Answer)
	}
	// Without DO: no RRSIG.
	a2, _ := s.Evaluate(name("www.example.com"), dnswire.TypeA, false)
	for _, rr := range a2.Answer {
		if rr.Type() == dnswire.TypeRRSIG {
			t.Fatal("RRSIG included without DO")
		}
	}
}

func TestSignedLookupNXDOMAINProofVerifies(t *testing.T) {
	for _, iters := range []uint16{0, 5, 100} {
		s := signTestZone(t, SignConfig{
			Denial: DenialNSEC3,
			NSEC3:  nsec3.Params{Iterations: iters},
		})
		qname := name("doesnotexist.example.com")
		a, err := s.Evaluate(qname, dnswire.TypeA, true)
		if err != nil {
			t.Fatal(err)
		}
		if a.Kind != KindNXDOMAIN || a.RCode != dnswire.RCodeNXDomain {
			t.Fatalf("kind=%s rcode=%s", a.Kind, a.RCode)
		}
		set, err := nsec3.ExtractResponseSet(a.Authority)
		if err != nil {
			t.Fatal(err)
		}
		ce, _, err := set.VerifyNXDOMAIN(qname)
		if err != nil {
			t.Fatalf("iters=%d: %v", iters, err)
		}
		if ce != "example.com." {
			t.Fatalf("ce = %s", ce)
		}
		// SOA present for negative caching.
		var hasSOA bool
		for _, rr := range a.Authority {
			if rr.Type() == dnswire.TypeSOA {
				hasSOA = true
			}
		}
		if !hasSOA {
			t.Fatal("no SOA in authority")
		}
	}
}

func TestSignedLookupNODATA(t *testing.T) {
	s := signTestZone(t, SignConfig{Denial: DenialNSEC3})
	a, err := s.Evaluate(name("www.example.com"), dnswire.TypeAAAA, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != KindNODATA || a.RCode != dnswire.RCodeNoError || len(a.Answer) != 0 {
		t.Fatalf("kind=%s rcode=%s answers=%d", a.Kind, a.RCode, len(a.Answer))
	}
	set, err := nsec3.ExtractResponseSet(a.Authority)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.VerifyNODATA(name("www.example.com"), dnswire.TypeAAAA); err != nil {
		t.Fatal(err)
	}
}

func TestSignedLookupWildcard(t *testing.T) {
	s := signTestZone(t, SignConfig{Denial: DenialNSEC3})
	qname := name("unique-probe-123.wild.example.com")
	a, err := s.Evaluate(qname, dnswire.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != KindWildcard {
		t.Fatalf("kind=%s", a.Kind)
	}
	// Owner rewritten to qname, RRSIG labels < owner labels.
	var sawExpanded bool
	var sigLabels uint8
	for _, rr := range a.Answer {
		if rr.Type() == dnswire.TypeA && rr.Name == qname {
			sawExpanded = true
		}
		if sig, ok := rr.Data.(dnswire.RRSIG); ok {
			sigLabels = sig.Labels
		}
	}
	if !sawExpanded {
		t.Fatal("answer not expanded to qname")
	}
	if int(sigLabels) >= qname.CountLabels() {
		t.Fatalf("RRSIG labels %d not below qname labels %d", sigLabels, qname.CountLabels())
	}
	// The wildcard proof must verify.
	set, err := nsec3.ExtractResponseSet(a.Authority)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.VerifyWildcardAnswer(qname, int(sigLabels)); err != nil {
		t.Fatal(err)
	}
}

func TestSignedLookupDelegation(t *testing.T) {
	s := signTestZone(t, SignConfig{Denial: DenialNSEC3})
	a, err := s.Evaluate(name("host.sub.example.com"), dnswire.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != KindDelegation || a.RCode != dnswire.RCodeNoError {
		t.Fatalf("kind=%s", a.Kind)
	}
	var hasNS, hasGlue, hasProof bool
	for _, rr := range a.Authority {
		switch rr.Type() {
		case dnswire.TypeNS:
			hasNS = true
		case dnswire.TypeNSEC3:
			hasProof = true
		}
	}
	for _, rr := range a.Additional {
		if rr.Type() == dnswire.TypeA && rr.Name == name("ns.sub.example.com") {
			hasGlue = true
		}
	}
	if !hasNS || !hasGlue || !hasProof {
		t.Fatalf("referral incomplete: NS=%v glue=%v proof=%v", hasNS, hasGlue, hasProof)
	}
}

func TestSignedLookupCNAME(t *testing.T) {
	s := signTestZone(t, SignConfig{Denial: DenialNSEC3})
	a, err := s.Evaluate(name("alias.example.com"), dnswire.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != KindCNAME {
		t.Fatalf("kind=%s", a.Kind)
	}
	if len(a.Answer) == 0 || a.Answer[0].Type() != dnswire.TypeCNAME {
		t.Fatalf("answer=%v", a.Answer)
	}
}

func TestSignedLookupOutOfZone(t *testing.T) {
	s := signTestZone(t, SignConfig{Denial: DenialNSEC3})
	a, err := s.Evaluate(name("www.other.org"), dnswire.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != KindNotInZone || a.RCode != dnswire.RCodeRefused {
		t.Fatalf("kind=%s rcode=%s", a.Kind, a.RCode)
	}
}

func TestOptOutOmitsInsecureDelegations(t *testing.T) {
	optIn := signTestZone(t, SignConfig{Denial: DenialNSEC3})
	optOut := signTestZone(t, SignConfig{Denial: DenialNSEC3, OptOut: true})
	if len(optOut.Chain().Records) >= len(optIn.Chain().Records) {
		t.Fatalf("opt-out chain not smaller: %d vs %d",
			len(optOut.Chain().Records), len(optIn.Chain().Records))
	}
	for _, rec := range optOut.Chain().Records {
		if !rec.RR.OptOut() {
			t.Fatal("opt-out flag missing on chain record")
		}
	}
	// The insecure delegation has no NSEC3 match in the opt-out chain.
	if _, ok, _ := optOut.Chain().Match(name("sub.example.com")); ok {
		t.Fatal("insecure delegation has NSEC3 despite opt-out")
	}
	if _, ok, _ := optIn.Chain().Match(name("sub.example.com")); !ok {
		t.Fatal("opt-in chain must include the delegation")
	}
}

func TestNSECModeLookups(t *testing.T) {
	s := signTestZone(t, SignConfig{Denial: DenialNSEC})
	// NXDOMAIN carries NSEC records.
	a, err := s.Evaluate(name("nothere.example.com"), dnswire.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	var nsecs int
	for _, rr := range a.Authority {
		if rr.Type() == dnswire.TypeNSEC {
			nsecs++
		}
	}
	if a.Kind != KindNXDOMAIN || nsecs == 0 {
		t.Fatalf("kind=%s nsecs=%d", a.Kind, nsecs)
	}
	// NSEC chain is walkable: next pointers visit every name.
	first := s.nsecOrder[0]
	cur := first
	visited := 0
	for {
		rr, ok := s.NSECRecord(cur)
		if !ok {
			t.Fatalf("no NSEC at %s", cur)
		}
		visited++
		next := rr.Data.(dnswire.NSEC).NextName
		if next == first {
			break
		}
		cur = next
		if visited > len(s.nsecOrder) {
			t.Fatal("NSEC chain does not terminate")
		}
	}
	if visited != len(s.nsecOrder) {
		t.Fatalf("walked %d of %d names", visited, len(s.nsecOrder))
	}
}

func TestExpireAllProducesExpiredRRSIGs(t *testing.T) {
	s := signTestZone(t, SignConfig{Denial: DenialNSEC3, ExpireAll: true})
	sigs := s.MustRRSIGs(t, name("www.example.com"), dnswire.TypeA)
	if len(sigs) == 0 {
		t.Fatal("no RRSIG")
	}
	sig := sigs[0].Data.(dnswire.RRSIG)
	if int32(tInception-sig.Expiration) <= 0 {
		t.Fatalf("expiration %d not before inception %d", sig.Expiration, tInception)
	}
}

func TestExpireDenialSigsOnlyAffectsNSEC3(t *testing.T) {
	s := signTestZone(t, SignConfig{Denial: DenialNSEC3, ExpireDenialSigs: true})
	aSig := s.MustRRSIGs(t, name("www.example.com"), dnswire.TypeA)[0].Data.(dnswire.RRSIG)
	if int32(aSig.Expiration-tInception) < 0 {
		t.Fatal("A RRSIG wrongly expired")
	}
	for _, rec := range s.Chain().Records {
		rr := s.Chain().RRFor(rec, 300)
		n3sig := s.MustRRSIGs(t, rr.Name, dnswire.TypeNSEC3)[0].Data.(dnswire.RRSIG)
		if int32(tInception-n3sig.Expiration) <= 0 {
			t.Fatal("NSEC3 RRSIG not expired")
		}
	}
}

func TestDSQueryAtCutAnsweredByParent(t *testing.T) {
	z := testZone(t)
	// Give the delegation a DS (secure delegation).
	z.MustAdd(dnswire.RR{Name: name("sub.example.com"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.DS{KeyTag: 1, Algorithm: dnswire.AlgECDSAP256SHA256,
			DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}})
	s, err := z.Sign(SignConfig{Denial: DenialNSEC3, Inception: tInception, Expiration: tExpiration})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Evaluate(name("sub.example.com"), dnswire.TypeDS, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != KindSuccess {
		t.Fatalf("kind=%s", a.Kind)
	}
	if len(a.Answer) == 0 || a.Answer[0].Type() != dnswire.TypeDS {
		t.Fatalf("answer=%v", a.Answer)
	}
	// And the referral for names below now carries DS.
	ref, err := s.Evaluate(name("x.sub.example.com"), dnswire.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	var hasDS bool
	for _, rr := range ref.Authority {
		if rr.Type() == dnswire.TypeDS {
			hasDS = true
		}
	}
	if !hasDS {
		t.Fatal("secure referral lacks DS")
	}
}

func TestMasterParseAndWriteRoundTrip(t *testing.T) {
	text := `
$ORIGIN example.com.
$TTL 300
@	3600	IN	SOA	ns1.example.com. hostmaster.example.com. 1 7200 3600 1209600 300
@	3600	IN	NS	ns1
ns1		IN	A	192.0.2.53
www		IN	A	192.0.2.1
www		IN	AAAA	2001:db8::1
mail		IN	MX	10 mail
alias		IN	CNAME	www
txt		IN	TXT	"hello"
`
	z, err := ParseMaster(strings.NewReader(text), name("example.com"), 300)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := z.SOA(); !ok {
		t.Fatal("no SOA parsed")
	}
	if got := z.Lookup(name("www.example.com"), dnswire.TypeA); len(got) != 1 {
		t.Fatalf("www A = %v", got)
	}
	if got := z.Lookup(name("mail.example.com"), dnswire.TypeMX); len(got) != 1 {
		t.Fatalf("mail MX = %v", got)
	}
	var sb strings.Builder
	if err := WriteMaster(&sb, z); err != nil {
		t.Fatal(err)
	}
	z2, err := ParseMaster(strings.NewReader(sb.String()), name("example.com"), 300)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, sb.String())
	}
	if len(z2.Records()) != len(z.Records()) {
		t.Fatalf("round trip %d != %d records", len(z2.Records()), len(z.Records()))
	}
}

func TestMasterParseErrors(t *testing.T) {
	cases := []string{
		"$ORIGIN",                    // missing arg
		"$TTL abc",                   // bad ttl
		"www IN",                     // missing type
		"www IN A not-an-ip",         // bad rdata
		"www IN A",                   // missing rdata
		"\tIN A 192.0.2.1",           // blank owner, no previous
		"www IN NSEC3 1 0 0 - X 0 A", // unsupported presentation type
	}
	for _, c := range cases {
		if _, err := ParseMaster(strings.NewReader(c), name("example.com"), 300); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestWildcardAtRespectsCloserExistence(t *testing.T) {
	z := testZone(t)
	// wild.example.com exists as ENT → its wildcard applies to children.
	if w, ok := z.WildcardAt(name("foo.wild.example.com")); !ok || w != name("*.wild.example.com") {
		t.Fatalf("WildcardAt = %q, %v", w, ok)
	}
	// No wildcard at the apex level.
	if _, ok := z.WildcardAt(name("foo.example.com")); ok {
		t.Fatal("unexpected wildcard")
	}
}
