package dnssec

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"encoding/asn1"
	"math/big"
	"net/netip"
	"testing"

	"repro/internal/dnswire"
)

// signRROverAlgorithm is what SignRR allocates beyond the signature
// algorithm itself: the RRset's one-element Datas, the 64-octet r || s,
// and the RRSIG boxed into the returned record's Data. The key tag, the
// label count and the signed octets cost nothing.
const signRROverAlgorithm = 3

// TestSignAllocs pins SignRR over a one-record RRset at exactly what
// its ECDSA call costs on the same box plus signRROverAlgorithm, for
// both kinds of key: a derived key against (*ecdsa.PrivateKey).Sign
// with a nil reader (RFC 6979), a generated one against
// ecdsa.SignASN1 over crypto/rand (hedged) — the stdlib's counts move
// with the Go release, the overhead must not. A derived Ed25519 key's
// Sign allocates exactly the signature. Signatures made the same way
// verify.
func TestSignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race")
	}
	zone := dnswire.MustParseName("example.com")
	derived, err := DeriveKey(dnswire.AlgECDSAP256SHA256, false, []byte("seed"), zone)
	if err != nil {
		t.Fatal(err)
	}
	owner := zone.MustChild("www")
	rrs := []dnswire.RR{{Name: owner, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}}
	set, err := NewRRset(rrs)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("any message"))
	for _, tc := range []struct {
		name   string
		key    *KeyPair
		stdlib func(priv *ecdsa.PrivateKey) ([]byte, error)
	}{
		{"derived, Sign(nil)", derived, func(priv *ecdsa.PrivateKey) ([]byte, error) {
			return priv.Sign(nil, digest[:], crypto.SHA256)
		}},
		{"generated, SignASN1(rand.Reader)", genKey(t, dnswire.AlgECDSAP256SHA256, false), func(priv *ecdsa.PrivateKey) ([]byte, error) {
			return ecdsa.SignASN1(rand.Reader, priv, digest[:])
		}},
	} {
		priv := tc.key.priv.(*ecdsa.PrivateKey)
		stdlib := testing.AllocsPerRun(200, func() {
			if _, err := tc.stdlib(priv); err != nil {
				t.Fatal(err)
			}
		})
		got := testing.AllocsPerRun(200, func() {
			if _, err := SignRR(rrs, tc.key, zone, testInception, testExpiration); err != nil {
				t.Fatal(err)
			}
		})
		if want := stdlib + signRROverAlgorithm; got != want {
			t.Errorf("%s: SignRR allocates %.0f times, want %.0f (stdlib %.0f + %d)", tc.name, got, want, stdlib, signRROverAlgorithm)
		}
		sigs := make([]dnswire.RR, 0, 50)
		testing.AllocsPerRun(50, func() {
			rr, err := SignRR(rrs, tc.key, zone, testInception, testExpiration)
			if err != nil {
				t.Fatal(err)
			}
			sigs = append(sigs, rr)
		})
		for i, rr := range sigs {
			if err := VerifyWithRRSIG(set, rr.Data.(dnswire.RRSIG), tc.key.DNSKEY(), zone, testNow); err != nil {
				t.Fatalf("%s: signature %d: %v", tc.name, i, err)
			}
		}
		if len(sigs) < 50 {
			t.Fatalf("%s: checked %d signatures, want 50", tc.name, len(sigs))
		}
	}

	// A derived Ed25519 key: Sign's one allocation is the signature,
	// which ed25519.Sign makes and the RRSIG keeps.
	ed, err := DeriveKey(dnswire.AlgEd25519, false, []byte("seed"), zone)
	if err != nil {
		t.Fatal(err)
	}
	var sig dnswire.RRSIG
	if got := testing.AllocsPerRun(200, func() {
		if sig, err = Sign(set, ed, zone, testInception, testExpiration); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("derived Ed25519: Sign allocates %.0f times, want 1", got)
	}
	if err := VerifyWithRRSIG(set, sig, ed.DNSKEY(), zone, testNow); err != nil {
		t.Fatalf("derived Ed25519: %v", err)
	}
}

// derInt is an ASN.1 INTEGER with the given content octets.
func derInt(content []byte) []byte { return append([]byte{0x02, byte(len(content))}, content...) }

// derSeq is an ASN.1 SEQUENCE of the given elements.
func derSeq(elems ...[]byte) []byte {
	body := bytes.Join(elems, nil)
	return append([]byte{0x30, byte(len(body))}, body...)
}

// TestECDSASigFromDER: r and s land right-aligned in their 32-octet
// halves whatever their encoded width, and anything but one SEQUENCE of
// two non-negative INTEGERs of at most 32 significant octets is refused.
func TestECDSASigFromDER(t *testing.T) {
	full := bytes.Repeat([]byte{0xA5}, 32) // high bit set: DER adds a zero
	low := bytes.Repeat([]byte{0x11}, 32)
	padded := func(v []byte) []byte { return append(make([]byte, 32-len(v)), v...) }
	for _, tc := range []struct {
		name string
		der  []byte
		want []byte // nil: refused
	}{
		{"full width, high bits", derSeq(derInt(append([]byte{0}, full...)), derInt(append([]byte{0}, full...))), append(full, full...)},
		{"full width, no sign octet", derSeq(derInt(low), derInt(low)), append(low, low...)},
		{"short r", derSeq(derInt(low[:31]), derInt(low)), append(padded(low[:31]), low...)},
		{"short s", derSeq(derInt(low), derInt([]byte{0x07})), append(low, padded([]byte{0x07})...)},
		{"zero r", derSeq(derInt([]byte{0}), derInt(low)), append(make([]byte, 32), low...)},
		{"leading-zero r and s", derSeq(derInt([]byte{0, 0, 0x7F}), derInt(append([]byte{0, 0}, low[:20]...))),
			append(padded([]byte{0x7F}), padded(low[:20])...)},
		{"trailing octets after the sequence", append(derSeq(derInt(low), derInt(low)), 0), nil},
		{"trailing element in the sequence", derSeq(derInt(low), derInt(low), derInt([]byte{1})), nil},
		{"one integer", derSeq(derInt(low)), nil},
		{"sequence tag wrong", append([]byte{0x31}, derSeq(derInt(low), derInt(low))[1:]...), nil},
		{"integer tag wrong", derSeq(append([]byte{0x03}, derInt(low)[1:]...), derInt(low)), nil},
		{"sequence length overruns", append([]byte{0x30, 0x50}, derSeq(derInt(low), derInt(low))[2:]...), nil},
		{"integer length overruns", derSeq(derInt(low), []byte{0x02, 0x21, 0x01}), nil},
		{"long-form length", append([]byte{0x30, 0x81, 0x44}, derSeq(derInt(low), derInt(low))[2:]...), nil},
		{"integer wider than 32 octets", derSeq(derInt(append([]byte{0x01}, low...)), derInt(low)), nil},
		{"negative integer", derSeq(derInt(full), derInt(low)), nil},
		{"empty integer", derSeq(derInt(nil), derInt(low)), nil},
		{"empty input", nil, nil},
	} {
		got, err := ecdsaSigFromDER(tc.der)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("%s: accepted as %x", tc.name, got)
		case tc.want != nil && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !bytes.Equal(got, tc.want):
			t.Errorf("%s: %x, want %x", tc.name, got, tc.want)
		}
	}
	// What crypto/ecdsa produces, against encoding/asn1 and math/big.
	key := genKey(t, dnswire.AlgECDSAP256SHA256, false)
	for i := 0; i < 200; i++ {
		digest := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		der, err := ecdsa.SignASN1(rand.Reader, key.priv.(*ecdsa.PrivateKey), digest[:])
		if err != nil {
			t.Fatal(err)
		}
		var rs struct{ R, S *big.Int }
		if rest, err := asn1.Unmarshal(der, &rs); err != nil || len(rest) != 0 {
			t.Fatalf("encoding/asn1: %v, %d octets left", err, len(rest))
		}
		want := make([]byte, 64)
		rs.R.FillBytes(want[:32])
		rs.S.FillBytes(want[32:])
		if got, err := ecdsaSigFromDER(der); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%x: %x, %v; want %x", der, got, err, want)
		}
	}
}
