package nsec3

import (
	"bytes"
	"crypto/sha1"
	"strings"
	"testing"

	"repro/internal/dnswire"
)

// FuzzHash throws arbitrary presentation names, iteration counts, and
// salts at the iterated hash. Any name the parser accepts must hash
// without panicking, deterministically, to exactly HashLen octets, and
// to the octets referenceHash computes, with the SHA-1 kernel selected
// (where the CPU has it) and with the crypto/sha1 loop.
// Iterations are capped so a fuzz worker never burns seconds on one
// input (the CPU-exhaustion behavior itself is what the paper measures,
// not what the fuzzer should rediscover).
func FuzzHash(f *testing.F) {
	f.Add("example.com.", uint16(10), []byte{0xAA, 0xBB, 0xCC, 0xDD})
	f.Add("*.example.com.", uint16(0), []byte{})
	f.Add(".", uint16(1), []byte{0xFF})
	f.Add("xn--nxasmq6b.example.", uint16(150), []byte("salt"))
	f.Add("it-2500.rfc9276-in-the-wild.com.", uint16(499), bytes.Repeat([]byte{0x5a}, 35))
	f.Add("it-2500.rfc9276-in-the-wild.com.", uint16(3), bytes.Repeat([]byte{0x5a}, 36))
	f.Fuzz(func(t *testing.T, s string, iterations uint16, salt []byte) {
		name, err := dnswire.ParseName(s)
		if err != nil {
			return
		}
		p := Params{
			Alg:        dnswire.NSEC3HashSHA1,
			Iterations: iterations % 500,
			Salt:       salt,
		}
		h, err := Hash(name, p)
		if err != nil {
			t.Fatalf("Hash(%q, %v) failed on a parsed name: %v", name, p, err)
		}
		if len(h) != HashLen {
			t.Fatalf("Hash(%q, %v) returned %d octets, want %d", name, p, len(h), HashLen)
		}
		again, err := Hash(name, p)
		if err != nil || !bytes.Equal(h, again) {
			t.Fatalf("Hash(%q, %v) is not deterministic: %x vs %x (err %v)", name, p, h, again, err)
		}
		want := referenceHash(name, p)
		if !bytes.Equal(h, want) {
			t.Fatalf("Hash(%q, %v) = %x, reference %x (SHA-1 kernel selected: %t)", name, p, h, want, useSHA1Block)
		}
		if useSHA1Block {
			useSHA1Block = false
			h, err = Hash(name, p)
			useSHA1Block = true
			if err != nil || !bytes.Equal(h, want) {
				t.Fatalf("Hash(%q, %v) on the crypto/sha1 loop = %x, reference %x (err %v)", name, p, h, want, err)
			}
		}
	})
}

// FuzzHashFromOwner holds AppendHashFromOwner to referenceHashFromOwner
// on every owner name the parser accepts. Where both accept they return
// the same HashLen octets, and a label the reference rejects is
// rejected. AppendHashFromOwner may reject what the reference accepts only
// when the raw leftmost label is not 32 base32hex characters: the
// standard library's decoder skips CR and LF octets, and strings.ToUpper
// turns some non-ASCII letters (U+0131, U+017F) into ASCII ones.
func FuzzHashFromOwner(f *testing.F) {
	h := sha1.Sum([]byte("owner"))
	label := EncodeHash(h[:])
	for _, s := range []string{
		label + ".example.com.", strings.ToUpper(label) + ".example.", label, ".",
		label[:31] + ".example.", label + "0.example.", label[:31] + "w.example.",
		label[:16] + `\010` + label[16:] + ".example.", label[:31] + `\196\177.example.`,
		label[:8] + `\.` + label[9:] + ".example.", "0123456789abcdef.example.com.", "!!!!.example.com.",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		owner, err := dnswire.ParseName(s)
		if err != nil {
			return
		}
		got, err := AppendHashFromOwner(nil, owner)
		want, werr := referenceHashFromOwner(owner)
		switch {
		case werr != nil && err == nil:
			t.Fatalf("AppendHashFromOwner(%q) = %x, reference rejects it: %v", owner, got, werr)
		case werr == nil && err != nil && isBase32HexLabel(owner.Labels()[0]):
			t.Fatalf("AppendHashFromOwner(%q) rejects a base32hex label: %v (reference %x)", owner, err, want)
		case err == nil && !bytes.Equal(got, want):
			t.Fatalf("AppendHashFromOwner(%q) = %x, reference %x", owner, got, want)
		}
	})
}
