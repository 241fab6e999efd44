package integration

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"net/netip"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/authserver"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/nsec3"
	"repro/internal/statewalk"
	"repro/internal/zone"
)

// servedCorpusPath is the wire corpus internal/dnswire's differential
// decoder tests read. It lives there because the decoder is what it
// pins; it is generated here because dnswire cannot import zone.
const servedCorpusPath = "../dnswire/testdata/served.hex"

// canonicalZone is the zone package's canonical test zone (in-zone
// host, MX, deep name behind an empty non-terminal, wildcard, insecure
// delegation with glue, CNAME) plus a secure delegation, so a DS query
// has a positive answer and a referral carries a DS RRset.
func canonicalZone() *zone.Zone {
	n := dnswire.MustParseName
	a := func(ip string) dnswire.A { return dnswire.A{Addr: netip.MustParseAddr(ip)} }
	z := zone.New(n("example.com"), 300)
	for _, rr := range []dnswire.RR{
		{Name: z.Apex, TTL: 3600, Data: dnswire.SOA{
			MName: n("ns1.example.com"), RName: n("hostmaster.example.com"),
			Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}},
		{Name: z.Apex, TTL: 3600, Data: dnswire.NS{Host: n("ns1.example.com")}},
		{Name: n("ns1.example.com"), TTL: 300, Data: a("192.0.2.53")},
		{Name: n("www.example.com"), TTL: 300, Data: a("192.0.2.1")},
		{Name: n("www.example.com"), TTL: 300, Data: dnswire.TXT{Strings: []string{"v=canonical", "second string"}}},
		{Name: n("mail.example.com"), TTL: 300, Data: a("192.0.2.2")},
		{Name: n("mail.example.com"), TTL: 300, Data: dnswire.MX{Preference: 10, Host: n("mail.example.com")}},
		{Name: n("a.b.example.com"), TTL: 300, Data: dnswire.TXT{Strings: []string{"deep"}}},
		{Name: n("*.wild.example.com"), TTL: 300, Data: a("192.0.2.77")},
		{Name: n("sub.example.com"), TTL: 3600, Data: dnswire.NS{Host: n("ns.sub.example.com")}},
		{Name: n("ns.sub.example.com"), TTL: 300, Data: a("192.0.2.100")},
		{Name: n("secure.example.com"), TTL: 3600, Data: dnswire.NS{Host: n("ns1.example.com")}},
		{Name: n("secure.example.com"), TTL: 300, Data: dnswire.DS{KeyTag: 1, Algorithm: dnswire.AlgECDSAP256SHA256,
			DigestType: dnswire.DigestSHA256, Digest: bytes.Repeat([]byte{0x5A}, 32)}},
		{Name: n("alias.example.com"), TTL: 300, Data: dnswire.CNAME{Target: n("www.example.com")}},
	} {
		rr.Class = dnswire.ClassIN
		z.MustAdd(rr)
	}
	return z
}

// serve renders what the server at h would put on the wire for one
// question: the UDP rendering under the query's advertised size and,
// when that came out truncated, the unlimited TCP rendering too.
func serve(t testing.TB, h netsim.Handler, qname dnswire.Name, qtype dnswire.Type, do bool) [][]byte {
	t.Helper()
	q := dnswire.NewQuery(0x5EED, qname, qtype, do)
	resp := h.Handle(context.Background(), netsim.Addr4(10, 0, 0, 1), q)
	if resp == nil {
		t.Fatalf("%s %s: no response", qname, qtype)
	}
	udp, err := resp.PackBuffer(nil, dnswire.DefaultUDPSize, true)
	if err != nil {
		t.Fatalf("%s %s: %v", qname, qtype, err)
	}
	out := [][]byte{udp}
	if resp.Header.Truncated {
		resp.Header.Truncated = false
		tcp, err := resp.Pack()
		if err != nil {
			t.Fatalf("%s %s: %v", qname, qtype, err)
		}
		out = append(out, tcp)
	}
	return out
}

// The corpus questions: eleven names (apex, hosts, an empty
// non-terminal, a wildcard expansion, both delegations and a name below
// one, the CNAME, two missing names) × seven types.
var (
	corpusQNames = []string{
		"example.com", "www.example.com", "mail.example.com", "b.example.com", "x.wild.example.com",
		"sub.example.com", "below.sub.example.com", "secure.example.com", "alias.example.com",
		"gone.example.com", "gone.www.example.com",
	}
	corpusQTypes = []dnswire.Type{dnswire.TypeA, dnswire.TypeTXT, dnswire.TypeNS, dnswire.TypeDS,
		dnswire.TypeDNSKEY, dnswire.TypeNSEC3PARAM, dnswire.TypeAXFR}
)

// corpusServers signs the canonical zone three ways — NSEC, NSEC3 with
// one iteration and a salt, NSEC3 opt-out — under derived keys, so every
// signature is a function of the zone, and hosts each on a server of its
// own with transfers open.
func corpusServers(t testing.TB) []*authserver.Server {
	t.Helper()
	var out []*authserver.Server
	for i, cfg := range []zone.SignConfig{
		{Denial: zone.DenialNSEC},
		{Denial: zone.DenialNSEC3, NSEC3: nsec3.Params{Iterations: 1, Salt: []byte{0xAA, 0xBB}}},
		{Denial: zone.DenialNSEC3, OptOut: true},
	} {
		cfg.Inception, cfg.Expiration = 1709251200, 1717200000
		z := canonicalZone()
		var err error
		secret := []byte{byte(i)}
		if cfg.KSK, err = dnssec.DeriveKey(dnswire.AlgECDSAP256SHA256, true, secret, z.Apex); err != nil {
			t.Fatal(err)
		}
		if cfg.ZSK, err = dnssec.DeriveKey(dnswire.AlgECDSAP256SHA256, false, secret, z.Apex); err != nil {
			t.Fatal(err)
		}
		sz, err := z.Sign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		as := authserver.New()
		as.AddZone(sz)
		as.SetTransferPolicy(sz.Zone.Apex, zone.TransferOpen)
		out = append(out, as)
	}
	return out
}

// servedResponses is the capture: every response the corpus servers
// give the corpus questions × DO on/off, then one NXDOMAIN and one
// referral per statewalk topology.
func servedResponses(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, as := range corpusServers(t) {
		for _, qn := range corpusQNames {
			for _, qt := range corpusQTypes {
				for _, do := range []bool{true, false} {
					out = append(out, serve(t, as, dnswire.MustParseName(qn), qt, do)...)
				}
			}
		}
	}
	w, err := statewalk.BuildWorld(7)
	if err != nil {
		t.Fatal(err)
	}
	hostOf := func(apex dnswire.Name) netsim.Handler {
		for _, srv := range w.Hierarchy.Servers {
			for _, hosted := range srv.Zones() {
				if hosted == apex {
					return srv
				}
			}
		}
		t.Fatalf("no server hosts %s", apex)
		return nil
	}
	// The TLD's server hosts nothing below "test", so there a name under
	// a topology's apex is a referral; on the zone's own server it does
	// not exist.
	tld := hostOf(dnswire.MustParseName("test"))
	for _, topo := range w.Topologies {
		qname := topo.Apex().MustChild("corpus-gone")
		out = append(out, serve(t, tld, qname, dnswire.TypeA, true)...)
		out = append(out, serve(t, hostOf(topo.Apex()), qname, dnswire.TypeA, true)...)
	}
	return out
}

// TestServedCorpus regenerates the responses the committed corpus was
// captured from and checks them: each decodes, the decoded Message
// packs back to the very octets served, and the capture is the
// committed corpus octet for octet — every key is derived and every
// signature RFC 6979, so what the zones serve is a function of the
// code. SERVED_WRITE_CORPUS=1 rewrites the corpus — a deliberate act,
// done on the commit whose served octets are the reference.
func TestServedCorpus(t *testing.T) {
	served := servedResponses(t)
	kinds := map[string]int{}
	for _, wire := range served {
		m, err := dnswire.Unpack(wire)
		if err != nil {
			t.Fatalf("served response does not decode: %v\n wire %x", err, wire)
		}
		limit := 0
		if m.Header.Truncated {
			limit = dnswire.DefaultUDPSize
		}
		back, err := m.PackBuffer(nil, limit, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, wire) {
			t.Fatalf("decoded response packs to different octets\n got  %x\n want %x", back, wire)
		}
		again, err := dnswire.Unpack(back)
		if err != nil || !reflect.DeepEqual(m, again) {
			t.Fatalf("second decode differs (err %v)", err)
		}
		switch {
		case m.Header.Truncated:
			kinds["truncated"]++
		case m.Header.RCode == dnswire.RCodeNXDomain:
			kinds["nxdomain"]++
		case m.Header.RCode == dnswire.RCodeNoError && !m.Header.Authoritative && len(m.Answers) == 0:
			kinds["referral"]++
		case m.Header.RCode == dnswire.RCodeNoError && len(m.Answers) == 0:
			kinds["nodata"]++
		case m.Header.RCode == dnswire.RCodeNoError:
			kinds["answer"]++
		default:
			kinds[m.Header.RCode.String()]++
		}
	}
	for _, k := range []string{"answer", "nodata", "nxdomain", "referral", "truncated"} {
		if kinds[k] == 0 {
			t.Errorf("no %s response among the %d served (%v)", k, len(served), kinds)
		}
	}
	t.Logf("%d responses: %v", len(served), kinds)

	if os.Getenv("SERVED_WRITE_CORPUS") != "" {
		var b strings.Builder
		fmt.Fprintf(&b, "# %d responses served by the canonical NSEC, NSEC3 and opt-out zones and the\n", len(served))
		b.WriteString("# statewalk world; one hex-encoded DNS message per line. Regenerate with\n")
		b.WriteString("# SERVED_WRITE_CORPUS=1 go test -run TestServedCorpus ./internal/integration\n")
		for _, wire := range served {
			b.WriteString(hex.EncodeToString(wire))
			b.WriteByte('\n')
		}
		if err := os.WriteFile(servedCorpusPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(servedCorpusPath)
	if err != nil {
		t.Fatal(err)
	}
	var committed []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && line[0] != '#' {
			committed = append(committed, line)
		}
	}
	if len(committed) != len(served) {
		t.Fatalf("%s holds %d messages, the generator serves %d: regenerate it", servedCorpusPath, len(committed), len(served))
	}
	for i, wire := range served {
		if got := hex.EncodeToString(wire); got != committed[i] {
			t.Fatalf("message %d differs from %s:\n got  %s\n want %s", i+1, servedCorpusPath, got, committed[i])
		}
	}
}
