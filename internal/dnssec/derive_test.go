package dnssec

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/dnswire"
)

// TestDeriveKey, for each algorithm DeriveKey derives: the same
// secret, apex and role give the same DNSKEY, and the same RRset signs
// to the same octets under it (RFC 6979 for P-256, RFC 8032 for
// Ed25519); the KSK differs from the ZSK, and another apex or another
// secret gives another key. Every signature verifies. The private key
// is the documented MAC of the documented input, so a P-256 scalar and
// an Ed25519 seed of the same inputs differ by the algorithm octet;
// RSA is refused.
func TestDeriveKey(t *testing.T) {
	secret := []byte{0, 0, 0, 0, 0, 0, 0, 7}
	apex := dnswire.MustParseName("example.com")
	set := sampleSet(t)
	derive := func(t *testing.T, alg dnswire.SecAlgorithm, ksk bool, secret []byte, apex dnswire.Name) *KeyPair {
		t.Helper()
		k, err := DeriveKey(alg, ksk, secret, apex)
		if err != nil {
			t.Fatal(err)
		}
		if k.Algorithm != alg {
			t.Fatalf("asked for %s, derived %s", alg, k.Algorithm)
		}
		return k
	}
	sign := func(t *testing.T, k *KeyPair) []byte {
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
	// mac is HMAC-SHA-256 keyed by secret over apex wire || flags || tail.
	mac := func(ksk bool, tail ...byte) []byte {
		m := hmac.New(sha256.New, secret)
		m.Write(binary.BigEndian.AppendUint16(apex.AppendWire(nil), keyFlags(ksk)))
		m.Write(tail)
		return m.Sum(nil)
	}
	private := map[dnswire.SecAlgorithm]func(*KeyPair) []byte{
		dnswire.AlgECDSAP256SHA256: func(k *KeyPair) []byte { return k.priv.(*ecdsa.PrivateKey).D.FillBytes(make([]byte, 32)) },
		dnswire.AlgEd25519:         func(k *KeyPair) []byte { return k.priv.(ed25519.PrivateKey).Seed() },
	}

	for _, tc := range []struct {
		alg  dnswire.SecAlgorithm
		tail []byte // what follows apex wire || flags in the MAC's input
	}{
		{dnswire.AlgECDSAP256SHA256, []byte{0, 0, 0, 0}}, // counter 0: in range for these inputs
		{dnswire.AlgEd25519, []byte{byte(dnswire.AlgEd25519)}},
	} {
		t.Run(tc.alg.String(), func(t *testing.T) {
			zsk, again := derive(t, tc.alg, false, secret, apex), derive(t, tc.alg, false, secret, apex)
			if !bytes.Equal(pub(zsk), pub(again)) || zsk.DNSKEY().Flags != again.DNSKEY().Flags {
				t.Fatal("same inputs derived two different DNSKEYs")
			}
			if a, b := sign(t, zsk), sign(t, again); !bytes.Equal(a, b) {
				t.Fatalf("same key and RRset signed to different octets:\n %x\n %x", a, b)
			}

			ksk := derive(t, tc.alg, true, secret, apex)
			if ksk.DNSKEY().Flags != dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP || zsk.DNSKEY().Flags != dnswire.DNSKEYFlagZone {
				t.Fatalf("flags KSK %d, ZSK %d", ksk.DNSKEY().Flags, zsk.DNSKEY().Flags)
			}
			for _, k := range []*KeyPair{zsk, ksk} {
				if got, want := private[tc.alg](k), mac(k == ksk, tc.tail...); !bytes.Equal(got, want) {
					t.Errorf("flags %d: private key %x, want the MAC %x", k.Flags, got, want)
				}
			}
			for _, other := range []struct {
				name string
				k    *KeyPair
			}{
				{"KSK", ksk},
				{"another apex", derive(t, tc.alg, false, secret, dnswire.MustParseName("example.net"))},
				{"another secret", derive(t, tc.alg, false, []byte{8}, apex)},
			} {
				if bytes.Equal(pub(other.k), pub(zsk)) {
					t.Errorf("%s: same public key as the ZSK", other.name)
				}
				sign(t, other.k)
			}
		})
	}

	for _, ksk := range []bool{false, true} {
		p256 := private[dnswire.AlgECDSAP256SHA256](derive(t, dnswire.AlgECDSAP256SHA256, ksk, secret, apex))
		seed := private[dnswire.AlgEd25519](derive(t, dnswire.AlgEd25519, ksk, secret, apex))
		if bytes.Equal(p256, seed) {
			t.Errorf("ksk %v: the Ed25519 seed is the P-256 scalar %x", ksk, seed)
		}
	}
	if _, err := DeriveKey(dnswire.AlgRSASHA256, false, secret, apex); !errors.Is(err, ErrUnsupportedAlg) {
		t.Errorf("DeriveKey(RSASHA256): %v, want ErrUnsupportedAlg", err)
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
