package dnssec

import (
	"bytes"
	"crypto/sha1"
	"crypto/sha256"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/dnswire"
)

const (
	testInception  = 1709251200 // 2024-03-01
	testExpiration = 1711843200 // 2024-03-31
	testNow        = 1710000000 // inside the window
)

var allAlgorithms = []dnswire.SecAlgorithm{
	dnswire.AlgECDSAP256SHA256,
	dnswire.AlgEd25519,
	dnswire.AlgRSASHA256,
}

func genKey(t testing.TB, alg dnswire.SecAlgorithm, ksk bool) *KeyPair {
	t.Helper()
	k, err := GenerateKey(alg, ksk)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func sampleSet(t testing.TB) RRset {
	t.Helper()
	owner := dnswire.MustParseName("www.example.com")
	set, err := NewRRset([]dnswire.RR{
		{Name: owner, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: owner, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.2")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestSignVerifyAllAlgorithms(t *testing.T) {
	zone := dnswire.MustParseName("example.com")
	set := sampleSet(t)
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			if alg == dnswire.AlgRSASHA256 && testing.Short() {
				t.Skip("RSA keygen is slow")
			}
			key := genKey(t, alg, false)
			sig, err := Sign(set, key, zone, testInception, testExpiration)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyWithRRSIG(set, sig, key.DNSKEY(), zone, testNow); err != nil {
				t.Fatalf("verify: %v", err)
			}
			// Tampered RRset must fail.
			bad := set
			bad.Datas = append([]dnswire.RData(nil), set.Datas...)
			bad.Datas[0] = dnswire.A{Addr: netip.MustParseAddr("203.0.113.99")}
			if err := VerifyWithRRSIG(bad, sig, key.DNSKEY(), zone, testNow); err == nil {
				t.Fatal("tampered RRset verified")
			}
			// Tampered signature must fail.
			badSig := sig
			badSig.Signature = append([]byte(nil), sig.Signature...)
			badSig.Signature[0] ^= 0xFF
			if err := VerifyWithRRSIG(set, badSig, key.DNSKEY(), zone, testNow); err == nil {
				t.Fatal("tampered signature verified")
			}
		})
	}
}

func TestSignatureOrderIndependence(t *testing.T) {
	// Canonical ordering means the RR order at signing/verifying time
	// must not matter.
	zone := dnswire.MustParseName("example.com")
	key := genKey(t, dnswire.AlgECDSAP256SHA256, false)
	owner := dnswire.MustParseName("multi.example.com")
	rr1 := dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 60, Data: dnswire.TXT{Strings: []string{"bbb"}}}
	rr2 := dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 60, Data: dnswire.TXT{Strings: []string{"aaa"}}}
	setA, _ := NewRRset([]dnswire.RR{rr1, rr2})
	setB, _ := NewRRset([]dnswire.RR{rr2, rr1})
	sig, err := Sign(setA, key, zone, testInception, testExpiration)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyWithRRSIG(setB, sig, key.DNSKEY(), zone, testNow); err != nil {
		t.Fatalf("reordered RRset failed: %v", err)
	}
}

func TestValidityWindow(t *testing.T) {
	sig := dnswire.RRSIG{Inception: testInception, Expiration: testExpiration}
	if err := CheckValidity(sig, testNow); err != nil {
		t.Fatal(err)
	}
	if err := CheckValidity(sig, testInception-1); !errors.Is(err, ErrSigNotYetValid) {
		t.Fatalf("want ErrSigNotYetValid, got %v", err)
	}
	if err := CheckValidity(sig, testExpiration+1); !errors.Is(err, ErrSigExpired) {
		t.Fatalf("want ErrSigExpired, got %v", err)
	}
}

func TestValidityWindowSerialWraparound(t *testing.T) {
	// Window straddling the 2^32 wrap: inception near max, expiration
	// small. Serial arithmetic must keep it valid across the wrap.
	sig := dnswire.RRSIG{Inception: 0xFFFFFF00, Expiration: 0x100}
	if err := CheckValidity(sig, 0xFFFFFFF0); err != nil {
		t.Fatalf("pre-wrap: %v", err)
	}
	if err := CheckValidity(sig, 0x10); err != nil {
		t.Fatalf("post-wrap: %v", err)
	}
	if err := CheckValidity(sig, 0x80000000); err == nil {
		t.Fatal("far outside window accepted")
	}
}

func TestExpiredSignatureRejected(t *testing.T) {
	// The behaviour behind the paper's "expired" testbed subdomain.
	zone := dnswire.MustParseName("rfc9276-in-the-wild.com")
	key := genKey(t, dnswire.AlgECDSAP256SHA256, false)
	set := sampleSet(t)
	sig, err := Sign(set, key, zone, testInception-10000, testInception-100)
	if err != nil {
		t.Fatal(err)
	}
	// www.example.com is not under the signer zone; use a set inside it.
	owner := dnswire.MustParseName("expired.rfc9276-in-the-wild.com")
	set2, _ := NewRRset([]dnswire.RR{{Name: owner, Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}})
	sig2, err := Sign(set2, key, zone, testInception-10000, testInception-100)
	if err != nil {
		t.Fatal(err)
	}
	err = VerifyWithRRSIG(set2, sig2, key.DNSKEY(), zone, testNow)
	if !errors.Is(err, ErrSigExpired) {
		t.Fatalf("want ErrSigExpired, got %v", err)
	}
	_ = sig
}

func TestWildcardExpansionSignature(t *testing.T) {
	// Sign the wildcard owner, verify against an expanded name with the
	// RRSIG Labels field mechanics of RFC 4035 §5.3.2.
	zone := dnswire.MustParseName("example.com")
	key := genKey(t, dnswire.AlgEd25519, false)
	wild := zone.Wildcard()
	set, _ := NewRRset([]dnswire.RR{{Name: wild, Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.7")}}})
	sig, err := Sign(set, key, zone, testInception, testExpiration)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Labels != 2 {
		t.Fatalf("Labels = %d, want 2", sig.Labels)
	}
	// The server expands *.example.com to q123.example.com; the RRSIG
	// travels unchanged.
	expanded := set
	expanded.Name = dnswire.MustParseName("q123.example.com")
	if err := VerifyWithRRSIG(expanded, sig, key.DNSKEY(), zone, testNow); err != nil {
		t.Fatalf("wildcard expansion failed: %v", err)
	}
	// Deeper expansions verify too.
	deeper := set
	deeper.Name = dnswire.MustParseName("a.b.example.com")
	if err := VerifyWithRRSIG(deeper, sig, key.DNSKEY(), zone, testNow); err != nil {
		t.Fatalf("deep wildcard expansion failed: %v", err)
	}
}

func TestVerifyStructuralChecks(t *testing.T) {
	zone := dnswire.MustParseName("example.com")
	key := genKey(t, dnswire.AlgECDSAP256SHA256, false)
	set := sampleSet(t)
	sig, err := Sign(set, key, zone, testInception, testExpiration)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong signer name.
	badSig := sig
	badSig.SignerName = dnswire.MustParseName("evil.com")
	if err := VerifyWithRRSIG(set, badSig, key.DNSKEY(), dnswire.MustParseName("evil.com"), testNow); err == nil {
		t.Fatal("owner outside signer zone accepted")
	}
	// Wrong key tag.
	other := genKey(t, dnswire.AlgECDSAP256SHA256, false)
	if err := VerifyWithRRSIG(set, sig, other.DNSKEY(), zone, testNow); err == nil {
		t.Fatal("verification with unrelated key accepted")
	}
	// Non-zone key.
	nzk := key.DNSKEY()
	nzk.Flags &^= dnswire.DNSKEYFlagZone
	if err := VerifyWithRRSIG(set, sig, nzk, zone, testNow); err == nil {
		t.Fatal("non-zone key accepted")
	}
	// Protocol != 3.
	badProto := key.DNSKEY()
	badProto.Protocol = 2
	if err := VerifyWithRRSIG(set, sig, badProto, zone, testNow); err == nil {
		t.Fatal("protocol 2 key accepted")
	}
}

func TestKeyTagStability(t *testing.T) {
	key := genKey(t, dnswire.AlgECDSAP256SHA256, true)
	tag1 := key.Tag()
	tag2 := KeyTag(key.DNSKEY())
	if tag1 != tag2 {
		t.Fatalf("tag mismatch %d != %d", tag1, tag2)
	}
	// KSK and ZSK flags produce different tags for the same key material.
	zskKey := key.DNSKEY()
	zskKey.Flags = dnswire.DNSKEYFlagZone
	if KeyTag(zskKey) == tag1 {
		t.Fatal("flag change did not affect tag")
	}
}

func TestDSGenerationAndVerification(t *testing.T) {
	owner := dnswire.MustParseName("child.example.com")
	key := genKey(t, dnswire.AlgECDSAP256SHA256, true)
	for _, dt := range []dnswire.DigestType{dnswire.DigestSHA1, dnswire.DigestSHA256} {
		ds, err := NewDS(owner, key.DNSKEY(), dt)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceDSDigest(owner, key.DNSKEY(), dt); !bytes.Equal(ds.Digest, want) {
			t.Fatalf("digest %d: %x, want %x", dt, ds.Digest, want)
		}
		if err := VerifyDS(owner, key.DNSKEY(), ds); err != nil {
			t.Fatalf("digest %d: %v", dt, err)
		}
		// Wrong owner.
		if err := VerifyDS(dnswire.MustParseName("other.example.com"), key.DNSKEY(), ds); err == nil {
			t.Fatal("DS verified for wrong owner")
		}
		// Corrupted digest.
		bad := ds
		bad.Digest = append([]byte(nil), ds.Digest...)
		bad.Digest[0] ^= 1
		if err := VerifyDS(owner, key.DNSKEY(), bad); err == nil {
			t.Fatal("corrupted DS verified")
		}
	}
	if _, err := NewDS(owner, key.DNSKEY(), dnswire.DigestType(99)); err == nil {
		t.Fatal("unknown digest type accepted")
	}
}

// referenceDSDigest is the DS digest the obvious way: the DNSKEY RDATA
// rendered by dnswire behind the owner's wire form, hashed by the
// standard library.
func referenceDSDigest(owner dnswire.Name, key dnswire.DNSKEY, dt dnswire.DigestType) []byte {
	in := dnswire.AppendRData(owner.AppendWire(nil), key)
	if dt == dnswire.DigestSHA1 {
		d := sha1.Sum(in)
		return d[:]
	}
	d := sha256.Sum256(in)
	return d[:]
}

// TestVerifyDSAllocFree pins VerifyDS at zero allocations for every
// outcome a validator meets at a zone cut — a match, a DS naming
// another key, a digest of the wrong length or value — and checks each
// mismatch is told apart. An RSA key, longer than the stack buffer the
// digest input is built in, still digests right.
func TestVerifyDSAllocFree(t *testing.T) {
	owner := dnswire.MustParseName("child.example.com")
	ksk := genKey(t, dnswire.AlgECDSAP256SHA256, true).DNSKEY()
	zsk := genKey(t, dnswire.AlgECDSAP256SHA256, false).DNSKEY()
	ds, err := NewDS(owner, ksk, dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	sha1DS, err := NewDS(owner, ksk, dnswire.DigestSHA1)
	if err != nil {
		t.Fatal(err)
	}
	short := ds
	short.Digest = ds.Digest[:20]
	flipped := ds
	flipped.Digest = append([]byte(nil), ds.Digest...)
	flipped.Digest[31] ^= 1
	for _, tc := range []struct {
		name string
		key  dnswire.DNSKEY
		ds   dnswire.DS
		want error
	}{
		{"SHA-256 match", ksk, ds, nil},
		{"SHA-1 match", ksk, sha1DS, nil},
		{"another key", zsk, ds, errDSKey},
		{"digest length", ksk, short, errDSDigestLength},
		{"digest value", ksk, flipped, errDSDigest},
	} {
		var err error
		n := testing.AllocsPerRun(100, func() { err = VerifyDS(owner, tc.key, tc.ds) })
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
		if n != 0 && !raceEnabled {
			t.Errorf("%s: VerifyDS allocates %.1f times, want 0", tc.name, n)
		}
	}
	if testing.Short() {
		return
	}
	rsaKey := genKey(t, dnswire.AlgRSASHA256, true).DNSKEY()
	rsaDS, err := NewDS(owner, rsaKey, dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceDSDigest(owner, rsaKey, dnswire.DigestSHA256); !bytes.Equal(rsaDS.Digest, want) {
		t.Fatalf("RSA key: digest %x, want %x", rsaDS.Digest, want)
	}
	if err := VerifyDS(owner, rsaKey, rsaDS); err != nil {
		t.Fatalf("RSA key: %v", err)
	}
}

func TestNewRRsetValidation(t *testing.T) {
	if _, err := NewRRset(nil); err == nil {
		t.Fatal("empty set accepted")
	}
	a := dnswire.RR{Name: "a.example.", Class: dnswire.ClassIN, TTL: 10,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}
	b := dnswire.RR{Name: "b.example.", Class: dnswire.ClassIN, TTL: 10,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.2")}}
	if _, err := NewRRset([]dnswire.RR{a, b}); err == nil {
		t.Fatal("mixed owners accepted")
	}
	c := a
	c.Data = dnswire.TXT{Strings: []string{"x"}}
	if _, err := NewRRset([]dnswire.RR{a, c}); err == nil {
		t.Fatal("mixed types accepted")
	}
	// Lowest TTL wins.
	d := a
	d.TTL = 5
	set, err := NewRRset([]dnswire.RR{a, d})
	if err != nil {
		t.Fatal(err)
	}
	if set.TTL != 5 {
		t.Fatalf("TTL = %d, want 5", set.TTL)
	}
}

func TestGenerateKeyUnsupported(t *testing.T) {
	if _, err := GenerateKey(dnswire.SecAlgorithm(200), false); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestPublicKeyWireRejectsGarbage(t *testing.T) {
	if _, err := ecdsaPublicFromWire(make([]byte, 63)); err == nil {
		t.Fatal("short ECDSA key accepted")
	}
	// 64 zero bytes: (0,0) is not on P-256.
	if _, err := ecdsaPublicFromWire(make([]byte, 64)); err == nil {
		t.Fatal("off-curve point accepted")
	}
	if _, err := rsaPublicFromWire([]byte{1}); err == nil {
		t.Fatal("truncated RSA key accepted")
	}
	if _, err := rsaPublicFromWire([]byte{1, 1, 0xFF}); err == nil {
		t.Fatal("RSA exponent 1 accepted")
	}
}

func TestPropSignVerifyRandomSets(t *testing.T) {
	zone := dnswire.MustParseName("prop.example")
	key := genKey(t, dnswire.AlgEd25519, false)
	f := func(label string, txts []string, ttl uint32) bool {
		if len(txts) == 0 {
			txts = []string{"x"}
		}
		for i := range txts {
			if len(txts[i]) > 200 {
				txts[i] = txts[i][:200]
			}
		}
		if len(label) == 0 || len(label) > 20 {
			label = "fallback"
		}
		owner, err := zone.Child(sanitizeLabel(label))
		if err != nil {
			return true // skip unbuildable labels
		}
		var rrs []dnswire.RR
		for _, s := range txts {
			rrs = append(rrs, dnswire.RR{Name: owner, Class: dnswire.ClassIN,
				TTL: ttl % 86400, Data: dnswire.TXT{Strings: []string{s}}})
		}
		set, err := NewRRset(rrs)
		if err != nil {
			return false
		}
		sig, err := Sign(set, key, zone, testInception, testExpiration)
		if err != nil {
			return false
		}
		return VerifyWithRRSIG(set, sig, key.DNSKEY(), zone, testNow) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sanitizeLabel(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s) && i < 20; i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return "x"
	}
	return string(out)
}
