package nsec3

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dnswire"
)

// mustHex decodes a hex string or panics.
func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// TestHashRFC5155Vectors checks the hash against the worked example of
// RFC 5155 Appendix A: zone "example", 12 iterations, salt aabbccdd.
func TestHashRFC5155Vectors(t *testing.T) {
	p := Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 12, Salt: mustHex("aabbccdd")}
	cases := []struct {
		name string
		want string // base32hex owner label, lowercase
	}{
		{"example", "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom"},
		{"a.example", "35mthgpgcu1qg68fab165klnsnk3dpvl"},
		{"ai.example", "gjeqe526plbf1g8mklp59enfd789njgi"},
		{"ns1.example", "2t7b4g4vsa5smi47k61mv5bv1a22bojr"},
		{"ns2.example", "q04jkcevqvmu85r014c7dkba38o0ji5r"},
		{"w.example", "k8udemvp1j2f7eg6jebps17vp3n8i58h"},
		{"*.w.example", "r53bq7cc2uvmubfu5ocmm6pers9tk9en"},
		{"x.w.example", "b4um86eghhds6nea196smvmlo4ors995"},
		{"y.w.example", "ji6neoaepv8b5o6k4ev33abha8ht9fgc"},
		{"x.y.w.example", "2vptu5timamqttgl4luu9kg21e0aor3s"},
		{"xx.example", "t644ebqk9bibcna874givr6joj62mlhv"},
	}
	for _, c := range cases {
		h, err := Hash(dnswire.MustParseName(c.name), p)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeHash(h); got != c.want {
			t.Errorf("Hash(%q) = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestHashZeroIterationsNoSalt(t *testing.T) {
	// RFC 9276-compliant parameters: a single SHA-1 over the wire name.
	p := Params{Alg: dnswire.NSEC3HashSHA1}
	h, err := Hash(dnswire.MustParseName("com"), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != HashLen {
		t.Fatalf("hash length %d", len(h))
	}
	if !p.RFC9276Compliant() {
		t.Fatal("zero/empty params must be compliant")
	}
	for _, bad := range []Params{
		{Alg: dnswire.NSEC3HashSHA1, Iterations: 1},
		{Alg: dnswire.NSEC3HashSHA1, Salt: []byte{1}},
	} {
		if bad.RFC9276Compliant() {
			t.Errorf("params %v wrongly compliant", bad)
		}
	}
}

func TestHashUnknownAlgorithm(t *testing.T) {
	if _, err := Hash("example.com.", Params{Alg: 2}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestHashCaseInsensitive(t *testing.T) {
	p := Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 3, Salt: []byte{0xFF}}
	a, _ := Hash(dnswire.MustParseName("WWW.Example.COM"), p)
	b, _ := Hash(dnswire.MustParseName("www.example.com"), p)
	if !bytes.Equal(a, b) {
		t.Fatal("hash differs by case")
	}
}

func TestEncodeDecodeHash(t *testing.T) {
	h := mustHex("0123456789abcdef0123456789abcdef01234567")
	label := EncodeHash(h)
	if len(label) != 32 {
		t.Fatalf("label length %d", len(label))
	}
	if strings.ToLower(label) != label {
		t.Fatal("label not lowercase")
	}
	back, err := DecodeHash(label)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, h) {
		t.Fatal("decode mismatch")
	}
}

func TestOwnerNameAndBack(t *testing.T) {
	zone := dnswire.MustParseName("example.com")
	p := Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 1, Salt: []byte{0xAB}}
	owner, err := OwnerName(dnswire.MustParseName("www.example.com"), zone, p)
	if err != nil {
		t.Fatal(err)
	}
	if !owner.IsSubdomainOf(zone) || owner.CountLabels() != 3 {
		t.Fatalf("owner = %s", owner)
	}
	h, err := HashFromOwner(owner)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Hash(dnswire.MustParseName("www.example.com"), p)
	if !bytes.Equal(h, want) {
		t.Fatal("HashFromOwner mismatch")
	}
}

func TestHashFromOwnerRejects(t *testing.T) {
	if _, err := HashFromOwner(dnswire.Root); err == nil {
		t.Fatal("root accepted")
	}
	// Wrong-length but valid base32hex.
	if _, err := HashFromOwner(dnswire.MustParseName("0123456789abcdef.example.com")); err == nil {
		t.Fatal("short hash accepted")
	}
	if _, err := HashFromOwner(dnswire.MustParseName("!!!!.example.com")); err == nil {
		t.Fatal("non-base32hex accepted")
	}
}

func TestCovers(t *testing.T) {
	h := func(b byte) []byte { return bytes.Repeat([]byte{b}, HashLen) }
	cases := []struct {
		owner, next, target byte
		want                bool
	}{
		{0x10, 0x20, 0x18, true},
		{0x10, 0x20, 0x10, false}, // equals owner
		{0x10, 0x20, 0x20, false}, // equals next
		{0x10, 0x20, 0x08, false},
		{0x10, 0x20, 0x28, false},
		// Wrapped span: last record covers everything outside [next, owner].
		{0xF0, 0x10, 0xF8, true},
		{0xF0, 0x10, 0x08, true},
		{0xF0, 0x10, 0x80, false},
		{0xF0, 0x10, 0xF0, false},
	}
	for _, c := range cases {
		got := Covers(h(c.owner), h(c.next), h(c.target))
		if got != c.want {
			t.Errorf("Covers(%02x,%02x,%02x) = %v, want %v", c.owner, c.next, c.target, got, c.want)
		}
	}
}

func TestCoversSingleRecordChain(t *testing.T) {
	// One record: owner == next; covers everything except the owner.
	h := bytes.Repeat([]byte{0x42}, HashLen)
	other := bytes.Repeat([]byte{0x43}, HashLen)
	if Covers(h, h, h) {
		t.Fatal("span covers its own owner")
	}
	if !Covers(h, h, other) {
		t.Fatal("single-record chain must cover all other hashes")
	}
}

// buildTestChain creates a small zone chain for proofs.
func buildTestChain(t testing.TB, p Params, optOut bool) (*Chain, map[dnswire.Name]dnswire.TypeBitmap) {
	t.Helper()
	zone := dnswire.MustParseName("example.com")
	names := map[dnswire.Name]dnswire.TypeBitmap{
		zone:                                     dnswire.NewTypeBitmap(dnswire.TypeSOA, dnswire.TypeNS, dnswire.TypeDNSKEY),
		dnswire.MustParseName("www.example.com"): dnswire.NewTypeBitmap(dnswire.TypeA),
		dnswire.MustParseName("mail.example.com"): dnswire.NewTypeBitmap(dnswire.TypeA, dnswire.TypeMX),
		dnswire.MustParseName("a.b.example.com"):  dnswire.NewTypeBitmap(dnswire.TypeTXT),
		// b.example.com is an empty non-terminal: present, no types.
		dnswire.MustParseName("b.example.com"): dnswire.NewTypeBitmap(),
	}
	c, err := BuildChain(zone, p, names, optOut, 300)
	if err != nil {
		t.Fatal(err)
	}
	return c, names
}

// proofRecords returns the distinct records of a proof in a stable
// order (closest encloser, next closer, wildcard, matching).
func proofRecords(p Proof) []Record {
	var out []Record
	for _, r := range []*Record{p.ClosestEncloser, p.NextCloser, p.Wildcard, p.Matching} {
		if r != nil && !slices.ContainsFunc(out, func(o Record) bool { return bytes.Equal(o.OwnerHash, r.OwnerHash) }) {
			out = append(out, *r)
		}
	}
	return out
}

func existsFn(names map[dnswire.Name]dnswire.TypeBitmap) func(dnswire.Name) bool {
	return func(n dnswire.Name) bool { _, ok := names[n]; return ok }
}

func TestBuildChainInvariants(t *testing.T) {
	p := Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 2, Salt: []byte{0x9F}}
	c, _ := buildTestChain(t, p, false)
	if len(c.Records) != 5 {
		t.Fatalf("%d records", len(c.Records))
	}
	// Sorted strictly ascending.
	for i := 1; i < len(c.Records); i++ {
		if bytes.Compare(c.Records[i-1].OwnerHash, c.Records[i].OwnerHash) >= 0 {
			t.Fatal("chain not strictly sorted")
		}
	}
	// Circular linkage: next pointers form one cycle through all records.
	seen := map[string]bool{}
	cur := c.Records[0].OwnerHash
	for i := 0; i < len(c.Records); i++ {
		idx, match := c.find(cur)
		if !match {
			t.Fatal("next pointer to nonexistent record")
		}
		key := string(cur)
		if seen[key] {
			t.Fatal("cycle shorter than chain")
		}
		seen[key] = true
		cur = c.Records[idx].RR.NextHashedOwner
	}
	if !bytes.Equal(cur, c.Records[0].OwnerHash) {
		t.Fatal("chain does not close")
	}
}

func TestBuildChainEmpty(t *testing.T) {
	if _, err := BuildChain("example.com.", Params{Alg: dnswire.NSEC3HashSHA1}, nil, false, 300); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestMatchAndCover(t *testing.T) {
	p := Params{Alg: dnswire.NSEC3HashSHA1}
	c, _ := buildTestChain(t, p, false)
	if _, ok, err := c.Match(dnswire.MustParseName("www.example.com")); err != nil || !ok {
		t.Fatalf("Match(www) = %v, %v", ok, err)
	}
	if _, ok, err := c.Match(dnswire.MustParseName("nope.example.com")); err != nil || ok {
		t.Fatalf("Match(nope) = %v, %v", ok, err)
	}
	if _, ok, err := c.Cover(dnswire.MustParseName("nope.example.com")); err != nil || !ok {
		t.Fatalf("Cover(nope) = %v, %v", ok, err)
	}
	if _, ok, err := c.Cover(dnswire.MustParseName("www.example.com")); err != nil || ok {
		t.Fatalf("Cover(www) = %v, %v", ok, err)
	}
}

func TestNXDOMAINProofSynthesisAndVerification(t *testing.T) {
	for _, iters := range []uint16{0, 1, 10, 151} {
		p := Params{Alg: dnswire.NSEC3HashSHA1, Iterations: iters, Salt: []byte{0x01, 0x02}}
		c, names := buildTestChain(t, p, false)
		qname := dnswire.MustParseName("x.y.example.com")
		proof, err := c.ProveNXDOMAIN(qname, existsFn(names))
		if err != nil {
			t.Fatalf("iters=%d: %v", iters, err)
		}
		if proof.ClosestEncloser == nil || proof.NextCloser == nil || proof.Wildcard == nil {
			t.Fatalf("iters=%d: incomplete proof %+v", iters, proof)
		}
		// Materialize RRs as a server would and verify as a resolver.
		var rrs []dnswire.RR
		for _, r := range proofRecords(proof) {
			rrs = append(rrs, c.RRFor(r, 300))
		}
		set, err := ExtractResponseSet(rrs)
		if err != nil {
			t.Fatal(err)
		}
		if set.Params.Iterations != iters {
			t.Fatalf("extracted iterations %d", set.Params.Iterations)
		}
		ce, _, err := set.VerifyNXDOMAIN(qname)
		if err != nil {
			t.Fatalf("iters=%d verify: %v", iters, err)
		}
		if ce != "example.com." {
			t.Fatalf("closest encloser %s", ce)
		}
	}
}

func TestNXDOMAINDeeperEncloser(t *testing.T) {
	p := Params{Alg: dnswire.NSEC3HashSHA1}
	c, names := buildTestChain(t, p, false)
	// b.example.com exists (ENT), so the encloser for q.b.example.com is b.example.com.
	qname := dnswire.MustParseName("q.b.example.com")
	proof, err := c.ProveNXDOMAIN(qname, existsFn(names))
	if err != nil {
		t.Fatal(err)
	}
	var rrs []dnswire.RR
	for _, r := range proofRecords(proof) {
		rrs = append(rrs, c.RRFor(r, 300))
	}
	set, err := ExtractResponseSet(rrs)
	if err != nil {
		t.Fatal(err)
	}
	ce, _, err := set.VerifyNXDOMAIN(qname)
	if err != nil {
		t.Fatal(err)
	}
	if ce != "b.example.com." {
		t.Fatalf("closest encloser %s", ce)
	}
}

func TestNODATAProof(t *testing.T) {
	p := Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 5}
	c, _ := buildTestChain(t, p, false)
	qname := dnswire.MustParseName("www.example.com")
	proof, err := c.ProveNODATA(qname)
	if err != nil {
		t.Fatal(err)
	}
	set, err := ExtractResponseSet([]dnswire.RR{c.RRFor(*proof.Matching, 300)})
	if err != nil {
		t.Fatal(err)
	}
	// www has A only; AAAA must verify as NODATA, A must fail.
	if err := set.VerifyNODATA(qname, dnswire.TypeAAAA); err != nil {
		t.Fatal(err)
	}
	if err := set.VerifyNODATA(qname, dnswire.TypeA); err == nil {
		t.Fatal("NODATA verified for existing type")
	}
}

func TestWildcardProof(t *testing.T) {
	zone := dnswire.MustParseName("example.com")
	p := Params{Alg: dnswire.NSEC3HashSHA1}
	names := map[dnswire.Name]dnswire.TypeBitmap{
		zone:            dnswire.NewTypeBitmap(dnswire.TypeSOA, dnswire.TypeNS),
		zone.Wildcard(): dnswire.NewTypeBitmap(dnswire.TypeA),
	}
	c, err := BuildChain(zone, p, names, false, 300)
	if err != nil {
		t.Fatal(err)
	}
	qname := dnswire.MustParseName("anything.example.com")
	proof, err := c.ProveWildcard(qname, existsFn(names))
	if err != nil {
		t.Fatal(err)
	}
	set, err := ExtractResponseSet([]dnswire.RR{c.RRFor(*proof.NextCloser, 300)})
	if err != nil {
		t.Fatal(err)
	}
	// The wildcard is *.example.com → 2 labels in the synthesizing name.
	if err := set.VerifyWildcardAnswer(qname, 2); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsForgedProofs(t *testing.T) {
	p := Params{Alg: dnswire.NSEC3HashSHA1}
	c, names := buildTestChain(t, p, false)
	qname := dnswire.MustParseName("ghost.example.com")
	proof, err := c.ProveNXDOMAIN(qname, existsFn(names))
	if err != nil {
		t.Fatal(err)
	}
	all := proofRecords(proof)

	// Missing closest-encloser record.
	var withoutCE []dnswire.RR
	for _, r := range all {
		if bytes.Equal(r.OwnerHash, proof.ClosestEncloser.OwnerHash) {
			continue
		}
		withoutCE = append(withoutCE, c.RRFor(r, 300))
	}
	if set, err := ExtractResponseSet(withoutCE); err == nil {
		if _, _, err := set.VerifyNXDOMAIN(qname); err == nil {
			t.Fatal("proof without closest encloser verified")
		}
	}

	// Proof for a different qname must not verify an existing name...
	var rrs []dnswire.RR
	for _, r := range all {
		rrs = append(rrs, c.RRFor(r, 300))
	}
	set, err := ExtractResponseSet(rrs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := set.VerifyNXDOMAIN(dnswire.MustParseName("www.example.com")); err == nil {
		t.Fatal("NXDOMAIN proof verified for an existing name")
	}
}

func TestExtractResponseSetInconsistent(t *testing.T) {
	p1 := Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 1}
	p2 := Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 2}
	c1, _ := buildTestChain(t, p1, false)
	c2, _ := buildTestChain(t, p2, false)
	rrs := []dnswire.RR{c1.RRFor(c1.Records[0], 300), c2.RRFor(c2.Records[0], 300)}
	if _, err := ExtractResponseSet(rrs); err == nil {
		t.Fatal("inconsistent parameters accepted (RFC 5155 §8.2 violated)")
	}
}

func TestOptOutFlagPropagates(t *testing.T) {
	p := Params{Alg: dnswire.NSEC3HashSHA1}
	c, _ := buildTestChain(t, p, true)
	for _, r := range c.Records {
		if !r.RR.OptOut() {
			t.Fatal("opt-out flag missing")
		}
	}
}

func TestPropChainMatchXorCover(t *testing.T) {
	// For any name, exactly one of Match/Cover holds on a chain.
	p := Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 1, Salt: []byte{7}}
	c, _ := buildTestChain(t, p, false)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		label := make([]byte, 1+r.Intn(10))
		for i := range label {
			label[i] = "abcdefghijklmnopqrstuvwxyz"[r.Intn(26)]
		}
		n, err := dnswire.FromLabels(string(label), "example", "com")
		if err != nil {
			return false
		}
		_, matched, err1 := c.Match(n)
		_, covered, err2 := c.Cover(n)
		return err1 == nil && err2 == nil && matched != covered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropCoversPartitionsSpace(t *testing.T) {
	// Any hash is covered by exactly one span of a chain, unless it
	// equals an owner hash.
	p := Params{Alg: dnswire.NSEC3HashSHA1}
	c, _ := buildTestChain(t, p, false)
	f := func(raw [HashLen]byte) bool {
		h := raw[:]
		covering := 0
		matching := 0
		for _, r := range c.Records {
			if bytes.Equal(r.OwnerHash, h) {
				matching++
			}
			if Covers(r.OwnerHash, r.RR.NextHashedOwner, h) {
				covering++
			}
		}
		if matching > 0 {
			return covering == 0
		}
		return covering == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestProofRecordsDedup(t *testing.T) {
	// In tiny zones one NSEC3 can serve several proof roles; Records()
	// must not duplicate it.
	zone := dnswire.MustParseName("tiny.example")
	p := Params{Alg: dnswire.NSEC3HashSHA1}
	names := map[dnswire.Name]dnswire.TypeBitmap{
		zone: dnswire.NewTypeBitmap(dnswire.TypeSOA),
	}
	c, err := BuildChain(zone, p, names, false, 300)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := c.ProveNXDOMAIN(dnswire.MustParseName("a.tiny.example"), existsFn(names))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(proofRecords(proof)); got != 1 {
		t.Fatalf("Records() = %d, want 1 (single NSEC3 zone)", got)
	}
}

func TestChainSortedAfterBuild(t *testing.T) {
	p := Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 3, Salt: []byte{0xAA, 0xBB, 0xCC}}
	c, _ := buildTestChain(t, p, false)
	if !sort.SliceIsSorted(c.Records, func(i, j int) bool {
		return bytes.Compare(c.Records[i].OwnerHash, c.Records[j].OwnerHash) < 0
	}) {
		t.Fatal("records not sorted")
	}
}
