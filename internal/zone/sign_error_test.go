package zone

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
)

// unusableKey is a key pair of an algorithm nothing here can sign with.
func unusableKey(ksk bool) *dnssec.KeyPair {
	flags := uint16(dnswire.DNSKEYFlagZone)
	if ksk {
		flags |= dnswire.DNSKEYFlagSEP
	}
	return &dnssec.KeyPair{Algorithm: 99, Flags: flags}
}

// TestUnusableKeyFailsAtCallTime: a zone that cannot be signed is
// refused by Sign whichever key is at fault, and by SignOnDemand when
// keys cannot be generated or the KSK cannot sign the DNSKEY RRset it
// signs up front.
func TestUnusableKeyFailsAtCallTime(t *testing.T) {
	signers := map[string]func(*Zone, SignConfig) (*Signed, error){
		"Sign": (*Zone).Sign, "SignOnDemand": (*Zone).SignOnDemand,
	}
	for _, denial := range []DenialMode{DenialNSEC3, DenialNSEC} {
		for name, sign := range signers {
			for what, cfg := range map[string]SignConfig{
				"algorithm": {Denial: denial, Algorithm: 99},
				"KSK":       {Denial: denial, KSK: unusableKey(true)},
			} {
				if _, err := sign(testZone(t), cfg); !errors.Is(err, dnssec.ErrUnsupportedAlg) {
					t.Errorf("%s, %s, unusable %s: err = %v, want %v", name, denial, what, err, dnssec.ErrUnsupportedAlg)
				}
			}
		}
		if _, err := testZone(t).Sign(SignConfig{Denial: denial, ZSK: unusableKey(false)}); !errors.Is(err, dnssec.ErrUnsupportedAlg) {
			t.Errorf("Sign, %s, unusable ZSK: err = %v, want %v", denial, err, dnssec.ErrUnsupportedAlg)
		}
	}
}

// TestFailedSignatureIsAnError: with a ZSK that cannot sign, a zone
// signed on demand answers what needs no new signature and returns the
// same error — never a panic, never an unsigned answer — every time an
// answer, SignAll or AllRecords needs one.
func TestFailedSignatureIsAnError(t *testing.T) {
	for _, denial := range []DenialMode{DenialNSEC3, DenialNSEC} {
		s, err := testZone(t).SignOnDemand(SignConfig{Denial: denial, ZSK: unusableKey(false)})
		if err != nil {
			t.Fatalf("%s: %v", denial, err)
		}
		apex := s.Zone.Apex
		// Needs nothing the ZSK signs.
		for _, q := range []struct {
			qtype dnswire.Type
			do    bool
		}{{dnswire.TypeDNSKEY, true}, {dnswire.TypeSOA, false}} {
			if a, err := s.Evaluate(apex, q.qtype, q.do); err != nil || a.Kind != KindSuccess {
				t.Errorf("%s: %s do=%v: %v, %v", denial, q.qtype, q.do, a, err)
			}
		}
		var first error
		for _, q := range []struct {
			qname string
			qtype dnswire.Type
		}{
			{"www.example.com", dnswire.TypeA},      // positive
			{"www.example.com", dnswire.TypeA},      // the same cell again
			{"www.example.com", dnswire.TypeTXT},    // NODATA
			{"nope.example.com", dnswire.TypeA},     // NXDOMAIN
			{"x.wild.example.com", dnswire.TypeA},   // wildcard
			{"alias.example.com", dnswire.TypeA},    // CNAME
			{"x.sub.example.com", dnswire.TypeA},    // insecure referral
			{"example.com", dnswire.TypeNSEC3PARAM}, // apex
		} {
			_, err := s.Evaluate(name(q.qname), q.qtype, true)
			if !errors.Is(err, dnssec.ErrUnsupportedAlg) {
				t.Errorf("%s: %s %s: err = %v, want %v", denial, q.qname, q.qtype, err, dnssec.ErrUnsupportedAlg)
			}
			if first == nil {
				first = err
			} else if q.qname == "www.example.com" && q.qtype == dnswire.TypeA && err != first {
				t.Errorf("%s: a failed signature was attempted again: %v, then %v", denial, first, err)
			}
		}
		if err := s.SignAll(); !errors.Is(err, dnssec.ErrUnsupportedAlg) {
			t.Errorf("%s: SignAll: %v", denial, err)
		}
		if rrs, err := s.AllRecords(); !errors.Is(err, dnssec.ErrUnsupportedAlg) || rrs != nil {
			t.Errorf("%s: AllRecords: %d records, %v", denial, len(rrs), err)
		}
		if made, total := s.SigStats(); made != 1 || total < 10 {
			t.Errorf("%s: SigStats = %d of %d, want the DNSKEY signature alone", denial, made, total)
		}
	}
}

// TestSigStats: a zone signed on demand has made one signature, each
// first answer adds the ones it carries, and SignAll makes the rest.
func TestSigStats(t *testing.T) {
	s, err := testZone(t).SignOnDemand(SignConfig{Denial: DenialNSEC3, Inception: tInception, Expiration: tExpiration})
	if err != nil {
		t.Fatal(err)
	}
	_, total := s.SigStats()
	expect := func(step string, want int) {
		t.Helper()
		if made, tot := s.SigStats(); made != want || tot != total {
			t.Fatalf("%s: SigStats = %d of %d, want %d of %d", step, made, tot, want, total)
		}
	}
	expect("signed on demand", 1)
	for i := 0; i < 2; i++ {
		if _, err := s.Evaluate(name("www.example.com"), dnswire.TypeA, true); err != nil {
			t.Fatal(err)
		}
		expect("one positive answer", 2)
	}
	if _, err := s.Evaluate(name("www.example.com"), dnswire.TypeA, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(name("mail.example.com"), dnswire.TypeA, false); err != nil {
		t.Fatal(err)
	}
	expect("answers without DO", 2)
	if err := s.SignAll(); err != nil {
		t.Fatal(err)
	}
	expect("SignAll", total)
	full := signTestZone(t, SignConfig{Denial: DenialNSEC3})
	if made, tot := full.SigStats(); made != tot || tot != total {
		t.Fatalf("Sign: SigStats = %d of %d, want %d of %d", made, tot, total, total)
	}
}

// TestSignAllReportsTheFailedCell: in a zone where one RRset of many
// cannot be signed — its records mix two classes — SignAll returns that
// cell's error, the one its readers get, alone and not joined with
// anything, however many goroutines it signs on; Sign refuses the zone
// with it.
func TestSignAllReportsTheFailedCell(t *testing.T) {
	bad := name("mixed.example.com")
	mixed := func(t *testing.T) *Zone {
		z := testZone(t)
		for i := 0; i < 40; i++ {
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild(fmt.Sprintf("h%02d", i)), Class: dnswire.ClassIN, TTL: 300, Data: mustA("192.0.2.9")})
		}
		z.MustAdd(dnswire.RR{Name: bad, Class: dnswire.ClassIN, TTL: 300, Data: mustA("192.0.2.10")})
		z.MustAdd(dnswire.RR{Name: bad, Class: dnswire.Class(3), TTL: 300, Data: mustA("192.0.2.11")})
		return z
	}
	for _, denial := range []DenialMode{DenialNSEC3, DenialNSEC} {
		cfg := SignConfig{Denial: denial, Inception: tInception, Expiration: tExpiration}
		s, err := mixed(t).SignOnDemand(cfg)
		if err != nil {
			t.Fatalf("%s: %v", denial, err)
		}
		err = s.SignAll()
		if err == nil {
			t.Fatalf("%s: SignAll signed an RRset that mixes classes", denial)
		}
		if _, joined := err.(interface{ Unwrap() []error }); joined {
			t.Errorf("%s: SignAll joined errors: %v", denial, err)
		}
		_, cellErr := s.RRSIGsFor(bad, dnswire.TypeA)
		if err != cellErr {
			t.Errorf("%s: SignAll = %v, the cell's error is %v", denial, err, cellErr)
		}
		if _, err := mixed(t).Sign(cfg); err == nil || err.Error() != cellErr.Error() {
			t.Errorf("%s: Sign = %v, want %v", denial, err, cellErr)
		}
	}
}

// TestUseNSEC3Range: UseNSEC3 takes every count an NSEC3 record can
// carry and refuses the first one it cannot, where a plain uint16
// conversion would sign 65,536 as 0; the salt's length is held to its
// 8-bit field the same way, a salt that is not hex is refused, and an
// empty one is no salt at all.
func TestUseNSEC3Range(t *testing.T) {
	for _, tc := range []struct {
		iterations uint
		salt       string
		ok         bool
	}{
		{0, "", true},
		{65535, "AB01", true},
		{65536, "", false},
		{65537, "", false},
		{0, "xyz", false},
		{0, strings.Repeat("ab", 255), true},
		{0, strings.Repeat("ab", 256), false},
	} {
		var cfg SignConfig
		err := cfg.UseNSEC3(tc.iterations, tc.salt, true)
		if (err == nil) != tc.ok {
			t.Errorf("UseNSEC3(%d, %q) = %v, want ok %v", tc.iterations, tc.salt, err, tc.ok)
			continue
		}
		if !tc.ok {
			if cfg.Denial != DenialNSEC || cfg.OptOut {
				t.Errorf("UseNSEC3(%d, %q) failed but changed the config: %+v", tc.iterations, tc.salt, cfg)
			}
			continue
		}
		if cfg.Denial != DenialNSEC3 || !cfg.OptOut || uint(cfg.NSEC3.Iterations) != tc.iterations ||
			len(cfg.NSEC3.Salt) != len(tc.salt)/2 || (tc.salt == "") != (cfg.NSEC3.Salt == nil) {
			t.Errorf("UseNSEC3(%d, %q) set %+v", tc.iterations, tc.salt, cfg)
		}
	}
}
