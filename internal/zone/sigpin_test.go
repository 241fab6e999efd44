package zone_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/zone"
)

// The signature pins: what a zone's RRSIGs must be whenever, and by
// whichever reader, they are first asked for. Everything a signature is
// derived from — the RRset, the key, the validity window — is checked
// here against the zone's configuration and the answer itself, never
// against the signer's own bookkeeping, over every fixture zone and
// every signer.

// sigChecker verifies RRSIGs of one signed zone. Verdicts go through a
// VerifyMemo: the same signature rides on thousands of answers.
type sigChecker struct {
	t    testing.TB
	s    *zone.Signed
	memo *dnssec.VerifyMemo
}

func newSigChecker(t testing.TB, s *zone.Signed, memo *dnssec.VerifyMemo) sigChecker {
	t.Helper()
	// Both keys are published: a signature by an unpublished key
	// verifies here and nowhere else.
	published := s.Zone.Lookup(s.Zone.Apex, dnswire.TypeDNSKEY)
	for _, kp := range []*dnssec.KeyPair{s.KSK, s.ZSK} {
		found := false
		for _, rr := range published {
			found = found || reflect.DeepEqual(rr.Data, kp.DNSKEY())
		}
		if !found {
			t.Fatalf("%s: key %d is not in the apex DNSKEY RRset", s.Zone.Apex, kp.Tag())
		}
	}
	return sigChecker{t, s, memo}
}

// window is the validity window the zone's configuration gives a
// signature over a denial (NSEC, NSEC3) or any other RRset.
func (c sigChecker) window(covered dnswire.Type) (inception, expiration uint32) {
	cfg := c.s.Config
	denial := covered == dnswire.TypeNSEC || covered == dnswire.TypeNSEC3
	if cfg.ExpireAll || (denial && cfg.ExpireDenialSigs) {
		return cfg.Inception - 200000, cfg.Inception - 100000
	}
	return cfg.Inception, cfg.Expiration
}

// check requires sigRR to be a signature over rrs by the KSK when rrs
// is the DNSKEY RRset and by the ZSK otherwise, carrying exactly the
// configured window, and cryptographically valid.
func (c sigChecker) check(what string, rrs []dnswire.RR, sigRR dnswire.RR) {
	c.t.Helper()
	sig := sigRR.Data.(dnswire.RRSIG)
	set, err := dnssec.NewRRset(rrs)
	if err != nil {
		c.t.Fatalf("%s: RRSIG(%s) at %s covers no RRset: %v", what, sig.TypeCovered, sigRR.Name, err)
	}
	key := c.s.ZSK
	if sig.TypeCovered == dnswire.TypeDNSKEY {
		key = c.s.KSK
	}
	if inc, exp := c.window(sig.TypeCovered); sig.Inception != inc || sig.Expiration != exp {
		c.t.Fatalf("%s: RRSIG(%s) at %s has window %d..%d, want %d..%d",
			what, sig.TypeCovered, sigRR.Name, sig.Inception, sig.Expiration, inc, exp)
	}
	if err := c.memo.VerifyWithRRSIG(set, sig, key.DNSKEY(), c.s.Zone.Apex, sig.Inception); err != nil {
		c.t.Fatalf("%s: RRSIG(%s) at %s: %v", what, sig.TypeCovered, sigRR.Name, err)
	}
}

// checkSection verifies every RRSIG of one message section over the
// records of the same section it covers, and returns how many it saw.
func (c sigChecker) checkSection(what string, section []dnswire.RR) int {
	c.t.Helper()
	n := 0
	for _, sigRR := range section {
		sig, ok := sigRR.Data.(dnswire.RRSIG)
		if !ok {
			continue
		}
		n++
		var covered []dnswire.RR
		for _, rr := range section {
			if rr.Name == sigRR.Name && rr.Type() == sig.TypeCovered {
				covered = append(covered, rr)
			}
		}
		c.check(what, covered, sigRR)
	}
	return n
}

// forEachFixtureZone runs f as a subtest per signer and group over
// that group's zones. The statewalk world is signed by the testbed, so
// it is walked once.
func forEachFixtureZone(t *testing.T, f func(t *testing.T, zones []*zone.Signed)) {
	for si, sg := range signers {
		for _, group := range fixtureGroups {
			if group == "statewalk" && si > 0 {
				continue
			}
			t.Run(sg.name+"/"+group, func(t *testing.T) {
				f(t, fixtureZones(t, group, sg.sign))
			})
		}
	}
}

// TestServedSignaturesVerify: every RRSIG in every answer verifies
// over the RRset it covers in that same answer under the zone's
// published keys — KSK for DNSKEY, ZSK for the rest — with exactly the
// window the configuration gives it, and the same question asked again
// gets the same answer down to the signature bytes (a generated key's
// ECDSA signatures are hedged: a signature made twice would differ).
func TestServedSignaturesVerify(t *testing.T) {
	memo := dnssec.NewVerifyMemo(nil)
	forEachFixtureZone(t, func(t *testing.T, zones []*zone.Signed) {
		sigs := 0
		for _, s := range zones {
			c := newSigChecker(t, s, memo)
			for _, p := range probesFor(s) {
				if !p.do {
					continue
				}
				a, err := s.Evaluate(p.qname, p.qtype, true)
				if err != nil {
					t.Fatalf("%s %s: %v", p.qname, p.qtype, err)
				}
				what := fmt.Sprintf("%s %s (%s)", p.qname, p.qtype, a.Kind)
				sigs += c.checkSection(what, a.Answer) + c.checkSection(what, a.Authority)
				again, err := s.Evaluate(p.qname, p.qtype, true)
				if err != nil || !reflect.DeepEqual(a, again) {
					t.Fatalf("%s: asked twice, answered differently (%v):\n first  %+v\n second %+v", what, err, a, again)
				}
			}
		}
		if sigs == 0 {
			t.Fatal("no RRSIG was served")
		}
	})
}

// signaturesOf collects the signature octets of every RRSIG in rrs.
func signaturesOf(rrs []dnswire.RR, into map[string]bool) {
	for _, rr := range rrs {
		if sig, ok := rr.Data.(dnswire.RRSIG); ok {
			into[string(sig.Signature)] = true
		}
	}
}

// TestAllRecordsAfterPartialServing: a zone that has answered a few
// questions transfers complete — exactly one valid RRSIG per signable
// RRset, per NSEC and per NSEC3 record — and the signatures it already
// served are the ones it transfers.
func TestAllRecordsAfterPartialServing(t *testing.T) {
	memo := dnssec.NewVerifyMemo(nil)
	forEachFixtureZone(t, func(t *testing.T, zones []*zone.Signed) {
		for _, s := range zones {
			served := make(map[string]bool)
			for i, p := range probesFor(s) {
				if !p.do || i%7 != 0 {
					continue
				}
				a, err := s.Evaluate(p.qname, p.qtype, true)
				if err != nil {
					t.Fatal(err)
				}
				signaturesOf(a.Answer, served)
				signaturesOf(a.Authority, served)
			}
			if len(served) == 0 {
				t.Fatalf("%s: nothing served", s.Zone.Apex)
			}
			all := s.MustAllRecords(t)
			transferred := make(map[string]bool)
			signaturesOf(all, transferred)
			for sig := range served {
				if !transferred[sig] {
					t.Fatalf("%s: a served signature is not in the transfer: %x", s.Zone.Apex, sig)
				}
			}
			checkTransfer(t, s, memo, all)
		}
	})
}

// checkTransfer requires all, s's AXFR stream, to carry exactly one
// valid RRSIG per signable RRset, per NSEC and per NSEC3 record.
func checkTransfer(t *testing.T, s *zone.Signed, memo *dnssec.VerifyMemo, all []dnswire.RR) {
	t.Helper()
	// What must be signed, derived from the zone: every authoritative
	// RRset but a delegation's NS, plus the denial chain.
	type rrset struct {
		owner dnswire.Name
		typ   dnswire.Type
	}
	want := make(map[rrset][]dnswire.RR)
	for owner, bitmap := range s.AuthNames() {
		for _, typ := range bitmap {
			if typ == dnswire.TypeRRSIG || typ == dnswire.TypeNSEC ||
				(typ == dnswire.TypeNS && s.Zone.IsDelegation(owner)) {
				continue
			}
			if rrs := s.Zone.Lookup(owner, typ); len(rrs) > 0 {
				want[rrset{owner, typ}] = rrs
			}
		}
		if rr, ok := s.NSECRecord(owner); ok {
			want[rrset{owner, dnswire.TypeNSEC}] = []dnswire.RR{rr}
		}
	}
	if chain := s.Chain(); chain != nil {
		for _, rec := range chain.Records {
			want[rrset{rec.Full.Name, dnswire.TypeNSEC3}] = []dnswire.RR{rec.Full}
		}
	}
	c := newSigChecker(t, s, memo)
	got := make(map[rrset]int)
	for _, rr := range all {
		sig, ok := rr.Data.(dnswire.RRSIG)
		if !ok {
			continue
		}
		key := rrset{rr.Name, sig.TypeCovered}
		got[key]++
		rrs, signable := want[key]
		if !signable {
			t.Fatalf("%s: RRSIG(%s) at %s covers nothing that is signed", s.Zone.Apex, sig.TypeCovered, rr.Name)
		}
		c.check("transfer", rrs, rr)
	}
	for key := range want {
		if got[key] != 1 {
			t.Fatalf("%s: %d RRSIGs over %s/%s, want 1", s.Zone.Apex, got[key], key.owner, key.typ)
		}
	}
}

// TestSignAllWhileServing: SignAll runs on a zone signed on demand
// while eight goroutines ask the same zone for signatures, answers and
// transfers. Afterwards SigStats counts every cell once — made equals
// total — the transfer is complete and every signature in it verifies,
// and each signature a reader was handed is the one transferred. Run
// under -race.
func TestSignAllWhileServing(t *testing.T) {
	memo := dnssec.NewVerifyMemo(nil)
	var zones []*zone.Signed
	for _, group := range []string{"canonical", "nsec"} {
		zones = append(zones, fixtureZones(t, group, (*zone.Zone).SignOnDemand)...)
	}
	for _, s := range zones {
		probes := probesFor(s)
		const readers = 8
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			seen  [readers]map[string]bool
		)
		for g := 0; g < readers; g++ {
			seen[g] = make(map[string]bool)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if g < 2 {
					all, err := s.AllRecords()
					if err != nil {
						t.Error(err)
					}
					signaturesOf(all, seen[g])
					return
				}
				for i := g; i < len(probes); i += readers {
					p := probes[i]
					sigs, err := s.RRSIGsFor(p.qname, p.qtype)
					if err != nil {
						t.Error(err)
						return
					}
					signaturesOf(sigs, seen[g])
					a, err := s.Evaluate(p.qname, p.qtype, true)
					if err != nil {
						t.Error(err)
						return
					}
					signaturesOf(a.Answer, seen[g])
					signaturesOf(a.Authority, seen[g])
				}
			}()
		}
		close(start)
		if err := s.SignAll(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if made, total := s.SigStats(); made != total {
			t.Fatalf("%s: SigStats = %d of %d after SignAll", s.Zone.Apex, made, total)
		}
		all := s.MustAllRecords(t)
		checkTransfer(t, s, memo, all)
		transferred := make(map[string]bool)
		signaturesOf(all, transferred)
		for g := range seen {
			for sig := range seen[g] {
				if !transferred[sig] {
					t.Fatalf("%s: reader %d was handed a signature the transfer does not carry: %x", s.Zone.Apex, g, sig)
				}
			}
		}
	}
}

// TestColdQuestionRace: eight goroutines put the same question to a
// zone nobody has asked anything yet — a hundred zones per signer —
// and all eight see the same signature bytes. Run under -race.
func TestColdQuestionRace(t *testing.T) {
	for _, sg := range signers {
		t.Run(sg.name, func(t *testing.T) {
			var zones []*zone.Signed
			for _, group := range []string{"canonical", "generator", "nsec"} {
				zones = append(zones, fixtureZones(t, group, sg.sign)...)
			}
			if len(zones) < 100 {
				t.Fatalf("%d zones, want at least 100", len(zones))
			}
			for _, s := range zones {
				q := s.Zone.Apex.MustChild("cold-question")
				const askers = 8
				var (
					wg      sync.WaitGroup
					start   = make(chan struct{})
					answers [askers]*zone.Answer
					errs    [askers]error
				)
				for g := 0; g < askers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						answers[g], errs[g] = s.Evaluate(q, dnswire.TypeA, true)
					}()
				}
				close(start)
				wg.Wait()
				for g := 0; g < askers; g++ {
					if errs[g] != nil {
						t.Fatalf("%s: %v", q, errs[g])
					}
					if answers[g].Kind != zone.KindNXDOMAIN {
						t.Fatalf("%s: %s", q, answers[g].Kind)
					}
					if !reflect.DeepEqual(answers[g], answers[0]) {
						t.Fatalf("%s: asker %d saw a different answer:\n got  %+v\n want %+v", q, g, answers[g], answers[0])
					}
				}
				sigs := make(map[string]bool)
				signaturesOf(answers[0].Authority, sigs)
				if len(sigs) < 2 {
					t.Fatalf("%s: %d signatures in a signed denial", q, len(sigs))
				}
			}
		})
	}
}
