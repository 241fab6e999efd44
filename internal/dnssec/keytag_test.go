package dnssec

import (
	"strings"
	"testing"

	"repro/internal/dnswire"
)

// referenceKeyTag is RFC 4034 Appendix B over the rendered DNSKEY
// RDATA, as written there.
func referenceKeyTag(key dnswire.DNSKEY) uint16 {
	rdata := dnswire.AppendRData(nil, key)
	var ac uint32
	for i, b := range rdata {
		if i&1 != 0 {
			ac += uint32(b)
		} else {
			ac += uint32(b) << 8
		}
	}
	ac += (ac >> 16) & 0xFFFF
	return uint16(ac & 0xFFFF)
}

// TestTagMatchesKeyTag: a key pair's tag is the tag of the DNSKEY it
// publishes, for every algorithm and for a public key of odd length,
// whose last octet is summed as a high byte.
func TestTagMatchesKeyTag(t *testing.T) {
	keys := map[string]*KeyPair{
		"ECDSA KSK":   genKey(t, dnswire.AlgECDSAP256SHA256, true),
		"ECDSA ZSK":   genKey(t, dnswire.AlgECDSAP256SHA256, false),
		"Ed25519 KSK": genKey(t, dnswire.AlgEd25519, true),
	}
	odd := make([]byte, 1+3+129) // exponent length, 65537, a 1025-bit modulus
	odd[0], odd[1], odd[2], odd[3] = 3, 0x01, 0x00, 0x01
	for i := 4; i < len(odd); i++ {
		odd[i] = byte(0xF0 + i*37)
	}
	keys["RSA, odd-length key"] = &KeyPair{Algorithm: dnswire.AlgRSASHA256, Flags: dnswire.DNSKEYFlagZone, publicKey: odd}
	for what, k := range keys {
		if len(k.publicKey) == 0 {
			t.Fatalf("%s: no public key", what)
		}
		want := referenceKeyTag(k.DNSKEY())
		if got := KeyTag(k.DNSKEY()); got != want {
			t.Errorf("%s: KeyTag = %d, reference %d", what, got, want)
		}
		if got := k.Tag(); got != want {
			t.Errorf("%s: Tag = %d, KeyTag of its DNSKEY %d", what, got, want)
		}
	}
	if n := len(odd); n%2 != 1 {
		t.Fatalf("the RSA key is %d octets, want an odd length", n)
	}
}

// TestOwnerLabelCount: the RRSIG Labels value of an owner is its label
// count less a leading "*" label — and only a leading one, only a
// label that is "*" alone.
func TestOwnerLabelCount(t *testing.T) {
	long := strings.TrimSuffix(strings.Repeat("a.", 127), ".")
	for _, s := range []string{
		".", "com", "example.com", "www.example.com",
		`x\.y.example.com`, `\..example.com`, `a\\.b.example.com`, `\000.example.com`,
		"*", "*.example.com", "*.*.example.com", "a.*.example.com",
		"*a.example.com", `\*.example.com`, `\042x.example.com`,
		long, "*." + long[2:],
	} {
		n := dnswire.MustParseName(s)
		labels := n.Labels()
		want := len(labels)
		if want > 0 && labels[0] == "*" {
			want--
		}
		if got := ownerLabelCount(n); int(got) != want {
			t.Errorf("ownerLabelCount(%s) = %d, want %d", n, got, want)
		}
	}
	if n := dnswire.MustParseName(long).CountLabels(); n != 127 {
		t.Fatalf("the long name has %d labels, want 127", n)
	}
}
