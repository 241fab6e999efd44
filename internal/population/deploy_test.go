package population

import (
	"context"
	"net/netip"
	"testing"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// TestDeployServesEd25519: every DNSKEY a deployed universe serves —
// root, TLDs, operator zones and domains — is Ed25519 (algorithm 15),
// and so is every RRSIG over it. Every DNSKEY RRset's signatures
// verify, and so do those over a sample of domain apexes' A records.
// No report would show a survey world planted back on P-256, only a
// slower survey.
func TestDeployServesEd25519(t *testing.T) {
	const inception, expiration, now = 1709251200, 1717200000, 1710000000
	u, err := Generate(Config{Registered: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(u, netsim.NewNetwork(3), inception, expiration, WithLazySigning())
	if err != nil {
		t.Fatal(err)
	}
	h := dep.Hierarchy
	// answer asks apex's server for (apex, qtype) and returns the
	// answer's RRset of that type and the RRSIGs over it.
	answer := func(addr netip.AddrPort, apex dnswire.Name, qtype dnswire.Type) (dnssec.RRset, []dnswire.RRSIG) {
		t.Helper()
		resp, err := h.Net.Exchange(context.Background(), addr, dnswire.NewQuery(1, apex, qtype, true))
		if err != nil {
			t.Fatalf("%s %s: %v", apex, qtype, err)
		}
		var rrs []dnswire.RR
		var sigs []dnswire.RRSIG
		for _, rr := range resp.Answers {
			if sig, ok := rr.Data.(dnswire.RRSIG); ok {
				sigs = append(sigs, sig)
			} else if rr.Type() == qtype {
				rrs = append(rrs, rr)
			}
		}
		if len(rrs) == 0 {
			return dnssec.RRset{}, sigs
		}
		set, err := dnssec.NewRRset(rrs)
		if err != nil {
			t.Fatal(err)
		}
		return set, sigs
	}
	verify := func(apex dnswire.Name, set dnssec.RRset, sigs []dnswire.RRSIG, keys []dnswire.DNSKEY) {
		t.Helper()
		if len(sigs) == 0 {
			t.Errorf("%s %s: no RRSIG", apex, set.Type())
		}
		for _, sig := range sigs {
			if sig.Algorithm != dnswire.AlgEd25519 {
				t.Errorf("%s %s: RRSIG of algorithm %d", apex, set.Type(), sig.Algorithm)
			}
			verified := false
			for _, key := range keys {
				if dnssec.KeyTag(key) == sig.KeyTag && dnssec.VerifyWithRRSIG(set, sig, key, apex, now) == nil {
					verified = true
				}
			}
			if !verified {
				t.Errorf("%s %s: RRSIG by key %d does not verify", apex, set.Type(), sig.KeyTag)
			}
		}
	}

	signed, sampled := 0, 0
	for addr, srv := range h.Servers {
		for _, apex := range srv.Zones() {
			set, sigs := answer(addr, apex, dnswire.TypeDNSKEY)
			if len(set.Datas) == 0 {
				continue // an unsigned zone
			}
			signed++
			keys := make([]dnswire.DNSKEY, 0, len(set.Datas))
			for _, d := range set.Datas {
				key := d.(dnswire.DNSKEY)
				if key.Algorithm != dnswire.AlgEd25519 {
					t.Errorf("%s: DNSKEY of algorithm %d", apex, key.Algorithm)
				}
				keys = append(keys, key)
			}
			verify(apex, set, sigs, keys)
			if apex.CountLabels() == 2 && signed%10 == 0 {
				if set, sigs := answer(addr, apex, dnswire.TypeA); len(set.Datas) > 0 {
					verify(apex, set, sigs, keys)
					sampled++
				}
			}
		}
	}
	if signed < DNSSECTLDs || sampled == 0 {
		t.Fatalf("%d signed zones, %d A RRsets verified: the check is vacuous", signed, sampled)
	}
}
