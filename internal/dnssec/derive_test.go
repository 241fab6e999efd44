package dnssec

import (
	"bytes"
	"testing"

	"repro/internal/dnswire"
)

// TestDeriveKey: the same secret, apex and role give the same DNSKEY,
// and the same RRset signs to the same octets under it (RFC 6979); the
// KSK differs from the ZSK, and another apex or another secret gives
// another key. Every signature verifies.
func TestDeriveKey(t *testing.T) {
	secret := []byte{0, 0, 0, 0, 0, 0, 0, 7}
	apex := dnswire.MustParseName("example.com")
	set := sampleSet(t)
	derive := func(ksk bool, secret []byte, apex dnswire.Name) *KeyPair {
		t.Helper()
		k, err := DeriveKey(dnswire.AlgECDSAP256SHA256, ksk, secret, apex)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	sign := func(k *KeyPair) []byte {
		t.Helper()
		sig, err := Sign(set, k, apex, testInception, testExpiration)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyWithRRSIG(set, sig, k.DNSKEY(), apex, testNow); err != nil {
			t.Fatalf("verify: %v", err)
		}
		return sig.Signature
	}
	pub := func(k *KeyPair) []byte { return k.DNSKEY().PublicKey }

	zsk, again := derive(false, secret, apex), derive(false, secret, apex)
	if !bytes.Equal(pub(zsk), pub(again)) || zsk.DNSKEY().Flags != again.DNSKEY().Flags {
		t.Fatal("same inputs derived two different DNSKEYs")
	}
	if a, b := sign(zsk), sign(again); !bytes.Equal(a, b) {
		t.Fatalf("same key and RRset signed to different octets:\n %x\n %x", a, b)
	}

	ksk := derive(true, secret, apex)
	if ksk.DNSKEY().Flags != dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP || zsk.DNSKEY().Flags != dnswire.DNSKEYFlagZone {
		t.Fatalf("flags KSK %d, ZSK %d", ksk.DNSKEY().Flags, zsk.DNSKEY().Flags)
	}
	for _, tc := range []struct {
		name string
		k    *KeyPair
	}{
		{"KSK", ksk},
		{"another apex", derive(false, secret, dnswire.MustParseName("example.net"))},
		{"another secret", derive(false, []byte{8}, apex)},
	} {
		if bytes.Equal(pub(tc.k), pub(zsk)) {
			t.Errorf("%s: same public key as the ZSK", tc.name)
		}
		sign(tc.k)
	}

	if _, err := DeriveKey(dnswire.AlgEd25519, false, secret, apex); err == nil {
		t.Error("DeriveKey accepted an algorithm other than ECDSA P-256")
	}
}

// TestGeneratedKeySignsHedged pins the path every key outside a seeded
// simulated world takes (authd -zone, zonesign, zone.Sign's own keys):
// a GenerateKey key signing one RRset twice gives two different
// signatures, both valid.
func TestGeneratedKeySignsHedged(t *testing.T) {
	zone := dnswire.MustParseName("example.com")
	set := sampleSet(t)
	key := genKey(t, dnswire.AlgECDSAP256SHA256, false)
	var sigs [2][]byte
	for i := range sigs {
		sig, err := Sign(set, key, zone, testInception, testExpiration)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyWithRRSIG(set, sig, key.DNSKEY(), zone, testNow); err != nil {
			t.Fatalf("signature %d: %v", i, err)
		}
		sigs[i] = sig.Signature
	}
	if bytes.Equal(sigs[0], sigs[1]) {
		t.Fatalf("a generated key signed one RRset twice to the same octets %x", sigs[0])
	}
}
