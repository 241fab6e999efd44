package nsec3

import (
	"bytes"
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
