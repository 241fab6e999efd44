package nsec3

import (
	"bytes"
	"crypto/sha1"
	"strings"
	"testing"

	"repro/internal/dnswire"
)

// referenceHash is RFC 5155 §5's iterated hash written as plainly as
// possible on crypto/sha1 alone: the slow oracle AppendHash is held to.
func referenceHash(name dnswire.Name, p Params) []byte {
	digest := sha1.Sum(append(name.AppendWire(nil), p.Salt...))
	for i := 0; i < int(p.Iterations); i++ {
		digest = sha1.Sum(append(digest[:], p.Salt...))
	}
	return digest[:]
}

// longestName is a name whose wire form is exactly MaxNameWireLen
// octets: three 63-octet labels, one 61-octet label and the root.
var longestName = dnswire.MustParseName(strings.Join([]string{
	strings.Repeat("a", 63), strings.Repeat("b", 63), strings.Repeat("c", 63), strings.Repeat("d", 61),
}, "."))

// TestHashMatchesReference holds AppendHash to referenceHash over every
// salt length from 0 to 40 octets — across the 35/36 edge where digest,
// salt and SHA-1 padding stop fitting one 64-octet block — at the
// iteration counts the paper's testbed and population use, for the
// shortest, a testbed-probe-shaped and the longest name. RFC 5155
// Appendix A's vectors pin both to the published hashes, so a mistake
// shared by the two cannot pass as agreement.
func TestHashMatchesReference(t *testing.T) {
	forEachRehashLoop(t, testHashMatchesReference)
}

// forEachRehashLoop runs f once with the SHA-1 kernel selected, on a CPU
// that has it, and once with useSHA1Block forced off, so the crypto/sha1
// loop stays covered on every CPU.
func forEachRehashLoop(t *testing.T, f func(t *testing.T)) {
	kernel := useSHA1Block
	t.Cleanup(func() { useSHA1Block = kernel })
	if kernel {
		t.Run("sha1block", f)
	} else {
		t.Log("this CPU has no SHA-1 kernel: only the crypto/sha1 loop runs")
	}
	useSHA1Block = false
	t.Run("crypto-sha1", f)
}

func testHashMatchesReference(t *testing.T) {
	if got := longestName.WireLen(); got != dnswire.MaxNameWireLen {
		t.Fatalf("longestName is %d octets in wire form, want %d", got, dnswire.MaxNameWireLen)
	}
	names := []dnswire.Name{
		dnswire.Root,
		dnswire.MustParseName("r17-p4242.www.it-2500.rfc9276-in-the-wild.com."),
		longestName,
	}
	salt := make([]byte, 40)
	for i := range salt {
		salt[i] = byte(0xa5 ^ i*7)
	}
	dst := make([]byte, 0, HashLen)
	rfc := Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 12, Salt: mustHex("aabbccdd")}
	for _, c := range rfc5155Vectors {
		name := dnswire.MustParseName(c.name)
		got, err := AppendHash(dst[:0], name, rfc)
		if err != nil {
			t.Fatalf("AppendHash(%s): %v", name, err)
		}
		if EncodeHash(got) != c.want || EncodeHash(referenceHash(name, rfc)) != c.want {
			t.Errorf("%s: AppendHash %s, reference %s, RFC 5155 %s", name, EncodeHash(got), EncodeHash(referenceHash(name, rfc)), c.want)
		}
	}
	for saltLen := 0; saltLen <= len(salt); saltLen++ {
		for _, it := range []uint16{0, 1, 2, 12, 150, 2500} {
			p := Params{Alg: dnswire.NSEC3HashSHA1, Iterations: it, Salt: salt[:saltLen]}
			for _, name := range names {
				got, err := AppendHash(dst[:0], name, p)
				if err != nil {
					t.Fatalf("AppendHash(%s, %v): %v", name, p, err)
				}
				if want := referenceHash(name, p); !bytes.Equal(got, want) {
					t.Errorf("AppendHash(%s, %v) = %x, reference %x", name, p, got, want)
				}
			}
		}
	}
}
