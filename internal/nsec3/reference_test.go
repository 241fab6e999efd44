package nsec3

import (
	"bytes"
	"crypto/sha1"
	"encoding/base32"
	"errors"
	"fmt"
	"reflect"
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

// referenceHashFromOwner reads an NSEC3 owner's hash the long way:
// split the owner into raw labels, upper-case the leftmost and hand it
// to the standard library's base32hex decoder.
func referenceHashFromOwner(owner dnswire.Name) ([]byte, error) {
	labels := owner.Labels()
	if len(labels) == 0 {
		return nil, errors.New("no hash label")
	}
	h, err := base32.HexEncoding.WithPadding(base32.NoPadding).DecodeString(strings.ToUpper(labels[0]))
	if err != nil {
		return nil, err
	}
	if len(h) != HashLen {
		return nil, fmt.Errorf("%d octets", len(h))
	}
	return h, nil
}

// isBase32HexLabel reports whether a raw label is HashLen octets'
// worth of base32hex: 32 characters of 0-9 and a-v in either case.
func isBase32HexLabel(l string) bool {
	if len(l) != 32 {
		return false
	}
	for i := 0; i < len(l); i++ {
		c := l[i] | 0x20 // lowercases letters, leaves digits alone
		if !('0' <= l[i] && l[i] <= '9' || 'a' <= c && c <= 'v') {
			return false
		}
	}
	return true
}

// referenceSuffix is the name made of the last n of labels, built by
// FromLabels.
func referenceSuffix(t *testing.T, labels []string, n int) dnswire.Name {
	t.Helper()
	name, err := dnswire.FromLabels(labels[len(labels)-n:]...)
	if err != nil {
		t.Fatal(err)
	}
	return name
}

// referenceClosestEncloser is RFC 5155 §8.3 over label slices: every
// candidate encloser is rebuilt from qname's labels by FromLabels and
// hashed by referenceHash.
func referenceClosestEncloser(t *testing.T, s *ResponseSet, qname dnswire.Name) (ce, nextCloser dnswire.Name, err error) {
	labels := qname.Labels()
	for drop := 1; drop <= len(labels); drop++ {
		candidate := referenceSuffix(t, labels, len(labels)-drop)
		if !candidate.IsSubdomainOf(s.Zone) {
			break
		}
		if _, ok := s.matches(referenceHash(candidate, s.Params)); ok {
			return candidate, referenceSuffix(t, labels, len(labels)-drop+1), nil
		}
	}
	return "", "", ErrNoClosestEncloser
}

// referenceVerifyNXDOMAIN is VerifyNXDOMAIN on referenceClosestEncloser,
// with the wildcard built by FromLabels.
func referenceVerifyNXDOMAIN(t *testing.T, s *ResponseSet, qname dnswire.Name) (dnswire.Name, Record, error) {
	ce, nextCloser, err := referenceClosestEncloser(t, s, qname)
	if err != nil {
		return "", Record{}, err
	}
	nc, ok := s.covered(referenceHash(nextCloser, s.Params))
	if !ok {
		return "", Record{}, fmt.Errorf("%w: next closer %s", ErrNotCovered, nextCloser)
	}
	wildcard, err := dnswire.FromLabels(append([]string{"*"}, ce.Labels()...)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.covered(referenceHash(wildcard, s.Params)); !ok {
		return "", Record{}, fmt.Errorf("%w: *.%s", ErrWildcardExists, ce)
	}
	return ce, nc, nil
}

// referenceVerifyWildcardAnswer is VerifyWildcardAnswer with the next
// closer rebuilt from qname's labels.
func referenceVerifyWildcardAnswer(t *testing.T, s *ResponseSet, qname dnswire.Name, wildcardLabels int) error {
	labels := qname.Labels()
	if wildcardLabels >= len(labels) {
		return fmt.Errorf("nsec3: wildcard label count %d not below qname %s", wildcardLabels, qname)
	}
	nextCloser := referenceSuffix(t, labels, wildcardLabels+1)
	if _, ok := s.covered(referenceHash(nextCloser, s.Params)); !ok {
		return fmt.Errorf("%w: next closer %s", ErrNotCovered, nextCloser)
	}
	return nil
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// referenceResponseSets returns response sets whose closest enclosers
// the reference test searches: whole chains (every candidate has a
// record to match or cover) for a plain zone at two parameter sets, a
// zone whose labels need escapes, and the root zone; and the
// three-record proofs a server sends for a few names.
func referenceResponseSets(t *testing.T) map[string]*ResponseSet {
	t.Helper()
	sets := map[string]*ResponseSet{}
	extract := func(key string, c *Chain, recs []Record) {
		var rrs []dnswire.RR
		for _, r := range recs {
			rrs = append(rrs, c.RRFor(r, 300))
		}
		set, err := ExtractResponseSet(rrs)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		sets[key] = set
	}
	for _, p := range []Params{
		{Alg: dnswire.NSEC3HashSHA1},
		{Alg: dnswire.NSEC3HashSHA1, Iterations: 10, Salt: []byte{0xab, 0xcd}},
	} {
		c, names := buildTestChain(t, p, false)
		extract(fmt.Sprintf("example.com %v chain", p), c, c.Records)
		for _, q := range []string{"x.y.example.com", "q.b.example.com", "nope.www.example.com"} {
			proof, err := c.ProveNXDOMAIN(dnswire.MustParseName(q), existsFn(names))
			if err != nil {
				t.Fatal(err)
			}
			extract(fmt.Sprintf("example.com %v proof for %s", p, q), c, proofRecords(proof))
		}
	}
	for _, zone := range []string{`we\.ird.example`, "."} {
		apex := dnswire.MustParseName(zone)
		names := map[dnswire.Name]dnswire.TypeBitmap{apex: dnswire.NewTypeBitmap(dnswire.TypeSOA, dnswire.TypeNS)}
		for _, rel := range []string{`sp\032ace`, `\000x.sp\032ace`, `a\.b`, "x"} {
			n := dnswire.MustParseName(rel)
			if !apex.IsRoot() {
				n = dnswire.MustParseName(rel + "." + string(apex))
			}
			names[n] = dnswire.NewTypeBitmap(dnswire.TypeTXT)
		}
		c, err := BuildChain(apex, Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 1}, names, false, 300)
		if err != nil {
			t.Fatal(err)
		}
		extract(zone+" chain", c, c.Records)
	}
	return sets
}

// referenceQNames are the names the reference test asks every set
// about: below, at and outside each zone, with escaped, upper-case and
// wildcard labels, and the root.
var referenceQNames = []string{
	"x.y.example.com", "q.b.example.com", "a.b.example.com", "b.example.com",
	"www.example.com", "nope.www.example.com", "Deep.ER.and.deeper.EXAMPLE.com",
	"example.com", "com", ".", "nope.example.org", "*.example.com", "x.*.example.com",
	`a\.b.example.com`, `\065\.\000.y.example.com`,
	`we\.ird.example`, `x.we\.ird.example`, `new.sp\032ace.we\.ird.example`,
	`\000x.sp\032ace.we\.ird.example`, `q.a\.b.we\.ird.example`, `we.ird.example`,
	`sp\032ace`, `\000x.sp\032ace`, "nope.x", "nope.www",
}

// TestVerifyMatchesLabelReference holds the validator's ancestor walk
// to the label-slice reference: findClosestEncloser, VerifyNXDOMAIN and
// VerifyWildcardAnswer (at every label count up to one past qname's)
// return the same names, records and errors as referenceClosestEncloser,
// referenceVerifyNXDOMAIN and referenceVerifyWildcardAnswer for every
// set and name.
func TestVerifyMatchesLabelReference(t *testing.T) {
	for key, set := range referenceResponseSets(t) {
		for _, q := range referenceQNames {
			qname := dnswire.MustParseName(q)
			ce, nc, err := set.findClosestEncloser(qname)
			wce, wnc, werr := referenceClosestEncloser(t, set, qname)
			if ce != wce || nc != wnc || errText(err) != errText(werr) {
				t.Errorf("%s: findClosestEncloser(%s) = (%q, %q, %v), reference (%q, %q, %v)", key, qname, ce, nc, err, wce, wnc, werr)
			}
			ce, rec, err := set.VerifyNXDOMAIN(qname)
			wce, wrec, werr := referenceVerifyNXDOMAIN(t, set, qname)
			if ce != wce || !reflect.DeepEqual(rec, wrec) || errText(err) != errText(werr) {
				t.Errorf("%s: VerifyNXDOMAIN(%s) = (%q, %x, %v), reference (%q, %x, %v)", key, qname, ce, rec.OwnerHash, err, wce, wrec.OwnerHash, werr)
			}
			for wl := 0; wl <= qname.CountLabels()+1; wl++ {
				err, werr := set.VerifyWildcardAnswer(qname, wl), referenceVerifyWildcardAnswer(t, set, qname, wl)
				if errText(err) != errText(werr) {
					t.Errorf("%s: VerifyWildcardAnswer(%s, %d) = %v, reference %v", key, qname, wl, err, werr)
				}
			}
		}
	}
}
