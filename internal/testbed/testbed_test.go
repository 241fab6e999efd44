package testbed

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/nsec3"
	"repro/internal/zone"
)

const (
	tInception  = 1709251200
	tExpiration = 1717200000
)

func buildWorld(t testing.TB) *Hierarchy {
	t.Helper()
	b := NewBuilder(tInception, tExpiration)
	InstallWorld(b)
	h, err := b.Build(netsim.NewNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBuilderRequiresRoot(t *testing.T) {
	b := NewBuilder(tInception, tExpiration)
	b.AddZone(ZoneSpec{
		Apex: dnswire.MustParseName("com"),
		Sign: zone.SignConfig{Denial: zone.DenialNSEC}, Server: netsim.Addr4(1, 2, 3, 4),
	})
	if _, err := b.Build(netsim.NewNetwork(1)); err == nil {
		t.Fatal("rootless hierarchy accepted")
	}
}

func TestHierarchyStructure(t *testing.T) {
	h := buildWorld(t)
	if len(h.TrustAnchor) != 1 {
		t.Fatalf("trust anchor = %v", h.TrustAnchor)
	}
	// The parent com zone must carry a DS for the testbed domain and
	// each subdomain zone is separately signed.
	comZone := h.Zones[dnswire.MustParseName("com")]
	tb := dnswire.MustParseName(TestbedDomain)
	if len(comZone.Zone.Lookup(tb, dnswire.TypeDS)) == 0 {
		t.Fatal("no DS for testbed domain in com")
	}
	parent := h.Zones[tb]
	for _, sub := range Subdomains() {
		apex := sub.Apex()
		sz, ok := h.Zones[apex]
		if !ok {
			t.Fatalf("zone %s missing", apex)
		}
		params := sz.Zone.Lookup(apex, dnswire.TypeNSEC3PARAM)
		if len(params) != 1 {
			t.Fatalf("%s: %d NSEC3PARAMs", apex, len(params))
		}
		p := params[0].Data.(dnswire.NSEC3PARAM)
		if p.Iterations != sub.Iterations {
			t.Fatalf("%s: iterations %d, want %d", apex, p.Iterations, sub.Iterations)
		}
		if len(p.Salt) != 0 {
			t.Fatalf("%s: salt present (testbed is salt-free, §4.2)", apex)
		}
		if len(parent.Zone.Lookup(apex, dnswire.TypeDS)) == 0 {
			t.Fatalf("no DS for %s in parent", apex)
		}
	}
}

// TestInstallWorldServesAlgorithm13: every zone InstallWorld serves
// publishes ECDSA P-256 (algorithm 13) DNSKEYs and signs its DNSKEY
// RRset with them, with keys derived from a seed (the resolver study's
// worlds) and with generated ones (authd -testbed). The resolver
// study's vendor profiles are classified against this world, so its
// algorithm holds still whatever other worlds sign with.
func TestInstallWorldServesAlgorithm13(t *testing.T) {
	for _, opts := range [][]BuilderOption{nil, {WithSeed(1), WithLazySigning()}} {
		b := NewBuilder(tInception, tExpiration, opts...)
		InstallWorld(b)
		h, err := b.Build(netsim.NewNetwork(2))
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[dnswire.Name]bool)
		for addr, srv := range h.Servers {
			for _, apex := range srv.Zones() {
				seen[apex] = true
				resp, err := h.Net.Exchange(context.Background(), addr, dnswire.NewQuery(1, apex, dnswire.TypeDNSKEY, true))
				if err != nil {
					t.Fatalf("%s DNSKEY: %v", apex, err)
				}
				keys, sigs := 0, 0
				for _, rr := range resp.Answers {
					switch d := rr.Data.(type) {
					case dnswire.DNSKEY:
						keys++
						if d.Algorithm != dnswire.AlgECDSAP256SHA256 {
							t.Errorf("%d options: %s publishes a DNSKEY of algorithm %d", len(opts), apex, d.Algorithm)
						}
					case dnswire.RRSIG:
						sigs++
						if d.Algorithm != dnswire.AlgECDSAP256SHA256 {
							t.Errorf("%d options: %s signs its DNSKEYs with algorithm %d", len(opts), apex, d.Algorithm)
						}
					}
				}
				if keys == 0 || sigs == 0 {
					t.Errorf("%d options: %s served %d DNSKEYs and %d RRSIGs", len(opts), apex, keys, sigs)
				}
			}
		}
		if want := 3 + len(Subdomains()); len(seen) != want {
			t.Errorf("%d options: %d zones served, want %d", len(opts), len(seen), want)
		}
	}
}

func TestQNameShapes(t *testing.T) {
	subs := Subdomains()
	for _, s := range subs {
		q := s.QName("u123")
		if !q.IsSubdomainOf(s.Apex()) {
			t.Fatalf("%s: qname %s outside apex", s.Label, q)
		}
		if s.WantNXDOMAIN {
			// <unique>.www.<apex>: the www leaf exists, so the apex
			// wildcard cannot match and the answer is NXDOMAIN.
			if q.Labels()[1] != "www" {
				t.Fatalf("%s: NXDOMAIN probe %s not under www", s.Label, q)
			}
		} else if q.CountLabels() != s.Apex().CountLabels()+1 {
			t.Fatalf("%s: wildcard probe %s has wrong depth", s.Label, q)
		}
	}
}

// TestAuthServerAnswersMatchProbeDesign verifies at the authoritative
// level (no resolver) that the probe names produce the intended answer
// shapes: wildcard NOERROR for valid, NXDOMAIN with N-iteration NSEC3
// proofs for it-N.
func TestAuthServerAnswersMatchProbeDesign(t *testing.T) {
	h := buildWorld(t)
	srv := h.Servers[netsim.Addr4(203, 0, 113, 10)]
	ctx := context.Background()
	for _, sub := range Subdomains() {
		q := dnswire.NewQuery(1, sub.QName("probe-a"), dnswire.TypeA, true)
		q.Header.RecursionDesired = false
		resp := srv.Handle(ctx, netsim.Addr4(10, 0, 0, 1), q)
		if sub.WantNXDOMAIN {
			if resp.Header.RCode != dnswire.RCodeNXDomain {
				t.Fatalf("%s: rcode %s, want NXDOMAIN", sub.Label, resp.Header.RCode)
			}
			set, err := nsec3.ExtractResponseSet(resp.Authority)
			if err != nil {
				t.Fatalf("%s: %v", sub.Label, err)
			}
			if set.Params.Iterations != sub.Iterations {
				t.Fatalf("%s: proof iterations %d", sub.Label, set.Params.Iterations)
			}
			if _, _, err := set.VerifyNXDOMAIN(sub.QName("probe-a")); err != nil {
				t.Fatalf("%s: proof invalid: %v", sub.Label, err)
			}
		} else {
			if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) == 0 {
				t.Fatalf("%s: rcode %s answers %d", sub.Label, resp.Header.RCode, len(resp.Answers))
			}
		}
	}
}

func TestUniqueLabelsBustCaches(t *testing.T) {
	// Distinct unique labels must produce distinct probe names.
	s := Subdomains()[2] // an it-N subdomain
	if s.QName("a") == s.QName("b") {
		t.Fatal("probe names collide")
	}
}

func TestTranscriptHelpers(t *testing.T) {
	tr := &Transcript{Observations: []Observation{
		{Label: "valid"},
		{Label: "it-1", NXProbe: true, Iterations: 1},
		{Label: "it-2501-expired", NXProbe: true, Iterations: 2501},
	}}
	if _, ok := tr.Find("valid"); !ok {
		t.Fatal("Find failed")
	}
	if _, ok := tr.Find("nope"); ok {
		t.Fatal("Find hallucinated")
	}
	series := tr.ItSeries()
	if len(series) != 1 || series[0].Label != "it-1" {
		t.Fatalf("ItSeries = %v (must exclude it-2501-expired)", series)
	}
}

// TestItSeriesSortedByIterations feeds ItSeries every probe in a
// shuffled order, plus two observations sharing an N, and checks the
// it-N series comes back in ascending N — it-51 between it-50 and
// it-75, not after it-500 where the probes put it — with equal N in the
// order they were given and it-2501-expired left out.
func TestItSeriesSortedByIterations(t *testing.T) {
	var obs []Observation
	want := 0
	for _, s := range Subdomains() {
		obs = append(obs, Observation{Label: s.Label, Iterations: s.Iterations, NXProbe: s.WantNXDOMAIN})
		if s.WantNXDOMAIN && s.Label != "it-2501-expired" {
			want++
		}
	}
	obs = append(obs,
		Observation{Label: "seven-first", Iterations: 7, NXProbe: true},
		Observation{Label: "seven-second", Iterations: 7, NXProbe: true})
	want += 2
	rand.New(rand.NewSource(1)).Shuffle(len(obs), func(i, j int) { obs[i], obs[j] = obs[j], obs[i] })
	var given []string // the label-7 observations, as shuffled
	for _, o := range obs {
		if o.Iterations == 7 {
			given = append(given, o.Label)
		}
	}

	series := (&Transcript{Observations: obs}).ItSeries()
	if len(series) != want {
		t.Fatalf("%d observations, want %d", len(series), want)
	}
	var got []string
	for i, o := range series {
		if o.Label == "it-2501-expired" || !o.NXProbe {
			t.Fatalf("series holds %s", o.Label)
		}
		if i > 0 && o.Iterations < series[i-1].Iterations {
			t.Fatalf("%s (N=%d) after %s (N=%d)", o.Label, o.Iterations, series[i-1].Label, series[i-1].Iterations)
		}
		if o.Iterations == 7 {
			got = append(got, o.Label)
		}
	}
	if !slices.Equal(got, given) {
		t.Errorf("N=7 observations in order %v, given %v", got, given)
	}
}

func TestServerSideQueryLogIdentifiesSources(t *testing.T) {
	// The §4.2 forwarder-detection mechanism: a query log attached to
	// the testbed's server records which source asked for which unique
	// label.
	h := buildWorld(t)
	srv := h.Servers[netsim.Addr4(203, 0, 113, 10)]
	srv.Log = authserver.NewQueryLog(16)
	from := netsim.Addr4(10, 9, 9, 9)
	q := dnswire.NewQuery(9, Subdomains()[5].QName("forwardee-42"), dnswire.TypeA, true)
	srv.Handle(context.Background(), from, q)
	srcs := srv.Log.SourcesFor(func(n dnswire.Name) bool {
		for _, l := range n.Labels() {
			if l == "forwardee-42" {
				return true
			}
		}
		return false
	})
	if len(srcs) != 1 || srcs[0] != from {
		t.Fatalf("sources = %v", srcs)
	}
}

func TestIPv6Reachability(t *testing.T) {
	h := buildWorld(t)
	// The testbed server answers on its IPv6 address too (§4.2: "All
	// subdomains are reachable over both IPv4 and IPv6").
	q := dnswire.NewQuery(3, dnswire.MustParseName("www.valid."+TestbedDomain), dnswire.TypeA, false)
	resp, err := h.Net.Exchange(context.Background(), netsim.Addr6(0x10), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %s", resp.Header.RCode)
	}
}
