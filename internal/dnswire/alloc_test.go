package dnswire

import (
	"net/netip"
	"testing"
)

// TestNameEncodeAllocFree pins the hot encode path: AppendWire into a
// buffer with spare capacity must not allocate. The //repro:hotpath
// annotation on PackBuffer is enforced statically by hotpathalloc;
// this test enforces the same contract dynamically, so a regression
// the analyzer's conservative rules happen to miss still fails here.
func TestNameEncodeAllocFree(t *testing.T) {
	name := MustParseName("a.long-ish.label.chain.example.org.")
	buf := make([]byte, 0, MaxNameWireLen)
	if n := testing.AllocsPerRun(200, func() {
		buf = name.AppendWire(buf[:0])
	}); n != 0 {
		t.Errorf("Name.AppendWire into spare capacity allocates %.1f times per run, want 0", n)
	}
}

// TestCanonicalCompareAllocFree pins the sort-comparator path of lazy
// signing: label boundaries are walked in place, never split into
// label strings — escaped labels included.
func TestCanonicalCompareAllocFree(t *testing.T) {
	a := MustParseName(`a\.b.\001long-ish.label.chain.example.org.`)
	b := MustParseName(`a\.c.\001long-ish.label.chain.example.org.`)
	if n := testing.AllocsPerRun(200, func() {
		if CanonicalCompare(a, b) >= 0 || CanonicalCompare(b, a) <= 0 {
			t.Fatal("wrong order")
		}
	}); n != 0 {
		t.Errorf("CanonicalCompare allocates %.1f times per run, want 0", n)
	}
}

// TestNameDecodeSingleAlloc pins the decode floor: a decoded Name owns
// its memory by contract, so readName pays exactly one allocation —
// the interned string — and nothing else (the presentation form is
// built in a stack buffer).
func TestNameDecodeSingleAlloc(t *testing.T) {
	name := MustParseName("a.long-ish.label.chain.example.org.")
	wire := name.AppendWire(nil)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := readName(wire, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("readName allocates %.1f times per run, want exactly 1 (the interned Name)", n)
	}

	// The root name is the Root constant: zero allocations.
	rootWire := Root.AppendWire(nil)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := readName(rootWire, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("readName of the root allocates %.1f times per run, want 0", n)
	}
}

// TestPackBufferAllocFree pins the full message encode path: rendering
// a response into a caller-provided buffer with a warmed encoder pool
// must not allocate.
func TestPackBufferAllocFree(t *testing.T) {
	q := MustParseName("www.example.org.")
	msg := &Message{
		Header:    Header{ID: 1, Response: true},
		Questions: []Question{{Name: q, Type: TypeA, Class: ClassIN}},
		Answers: []RR{{
			Name: q, Class: ClassIN, TTL: 300,
			Data: &A{Addr: netip.MustParseAddr("192.0.2.1")},
		}},
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; steady-state alloc counts are nondeterministic")
	}
	dst := make([]byte, 0, 512)
	// Warm the encoder pool so the measurement sees steady state.
	if _, err := msg.PackBuffer(dst, 0, true); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := msg.PackBuffer(dst[:0], 0, true); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PackBuffer into a caller-provided buffer allocates %.1f times per run, want 0", n)
	}
}

// TestUnpackOwnsItsMemory pins the contract the pooled UDP read loop
// depends on: no field of an unpacked Message aliases the input
// buffer, so the serve loop may return the read buffer to its pool the
// moment Unpack returns — even while the handler, running on another
// goroutine, still holds the Message. The scribble below simulates the
// pool handing the buffer to the next packet.
func TestUnpackOwnsItsMemory(t *testing.T) {
	name := MustParseName("alias.check.example.org.")
	msg := &Message{
		Header:    Header{ID: 42, Response: true},
		Questions: []Question{{Name: name, Type: TypeTXT, Class: ClassIN}},
		Answers: []RR{
			{Name: name, Class: ClassIN, TTL: 300, Data: TXT{Strings: []string{"payload"}}},
			{Name: name, Class: ClassIN, TTL: 300, Data: NSEC3PARAM{
				HashAlg: NSEC3HashSHA1, Iterations: 5, Salt: []byte{0xde, 0xad, 0xbe, 0xef},
			}},
		},
	}
	wire, err := msg.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 0xFF
	}
	if got.Question().Name != name {
		t.Errorf("question name aliased the read buffer: %q", got.Question().Name)
	}
	if got.Answers[0].Name != name {
		t.Errorf("answer owner aliased the read buffer: %q", got.Answers[0].Name)
	}
	if s := got.Answers[0].Data.(TXT).Strings[0]; s != "payload" {
		t.Errorf("TXT payload aliased the read buffer: %q", s)
	}
	p := got.Answers[1].Data.(NSEC3PARAM)
	if len(p.Salt) != 4 || p.Salt[0] != 0xde || p.Salt[3] != 0xef {
		t.Errorf("NSEC3PARAM salt aliased the read buffer: %x", p.Salt)
	}
}

// benchResponses builds the two responses the repository benchmark's
// dnswire.unpack_ns.* layers decode, octet count for octet count: the
// signed NSEC3 NXDOMAIN (SOA + RRSIG and three NSEC3 + RRSIG in the
// authority section; 784 octets) and the signed TXT answer (199) that
// its 20,000-name iterations-0 zone serves to a DO query.
func benchResponses(t testing.TB) (nxdomain, positive []byte) {
	t.Helper()
	apex := MustParseName("bench.example")
	sig := func(owner Name, covered Type, ttl uint32) RR {
		return RR{Name: owner, Class: ClassIN, TTL: ttl, Data: RRSIG{
			TypeCovered: covered, Algorithm: AlgECDSAP256SHA256, Labels: uint8(owner.CountLabels()),
			OrigTTL: ttl, Expiration: 1717200000, Inception: 1709251200, KeyTag: 4711,
			SignerName: apex, Signature: make([]byte, 64),
		}}
	}
	nx := &Message{
		Header:    Header{ID: 1, Response: true, Authoritative: true, RCode: RCodeNXDomain},
		Questions: []Question{{Name: apex.MustChild("u0123456789abcdef"), Type: TypeA, Class: ClassIN}},
		Authority: []RR{
			{Name: apex, Class: ClassIN, TTL: 300, Data: SOA{
				MName: apex.MustChild("ns"), RName: apex.MustChild("hostmaster"),
				Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300}},
			sig(apex, TypeSOA, 300),
		},
		Additional: []RR{(&OPT{UDPSize: DefaultUDPSize, DO: true}).AsRR()},
	}
	for i, h := range []string{
		"0p9mhaveqvm6t7vbl5lop2u3t2rp3tom", "b4um86eghhds6nea196smvmlo4ors995", "q04jkcevqvmu85r014c7dkba38o0ji5r",
	} {
		owner := apex.MustChild(h)
		types := NewTypeBitmap(TypeTXT, TypeRRSIG)
		if i == 0 {
			types = NewTypeBitmap(TypeNS, TypeSOA, TypeRRSIG, TypeDNSKEY, TypeNSEC3PARAM)
		}
		nx.Authority = append(nx.Authority,
			RR{Name: owner, Class: ClassIN, TTL: 300, Data: NSEC3{
				HashAlg: NSEC3HashSHA1, NextHashedOwner: make([]byte, 20), Types: types}},
			sig(owner, TypeNSEC3, 300))
	}
	host := apex.MustChild("h00001-abcdef")
	pos := &Message{
		Header:    Header{ID: 2, Response: true, Authoritative: true},
		Questions: []Question{{Name: host, Type: TypeTXT, Class: ClassIN}},
		Answers: []RR{
			{Name: host, Class: ClassIN, TTL: 300, Data: TXT{Strings: []string{"v=bench h00001-abcdef"}}},
			sig(host, TypeTXT, 300),
		},
		Additional: []RR{(&OPT{UDPSize: DefaultUDPSize, DO: true}).AsRR()},
	}
	var err error
	if nxdomain, err = nx.Pack(); err != nil {
		t.Fatal(err)
	}
	if positive, err = pos.Pack(); err != nil {
		t.Fatal(err)
	}
	if len(nxdomain) != 784 || len(positive) != 199 {
		t.Fatalf("benchmark-shaped responses are %d and %d octets, want 784 and 199", len(nxdomain), len(positive))
	}
	return nxdomain, positive
}

// TestUnpackAllocCeiling pins what decoding costs in allocations: one
// copy of the wire for the byte fields, one record slab, one string per
// distinct name, one boxed RDATA per record (and one bitmap per NSEC3)
// — not one allocation per field. The NXDOMAIN response cost 45 when
// every byte field, every repeated name and every slice growth step
// allocated.
func TestUnpackAllocCeiling(t *testing.T) {
	nxdomain, positive := benchResponses(t)
	query, err := NewQuery(3, MustParseName("u0123456789abcdef.bench.example"), TypeA, true).Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		wire []byte
		max  float64
	}{
		{"784-octet NXDOMAIN", nxdomain, 23},
		{"199-octet positive", positive, 11},
		{"query", query, 5},
	} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := Unpack(tc.wire); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", tc.name, got)
		if got > tc.max {
			t.Errorf("Unpack of the %s allocates %.0f times, ceiling %.0f", tc.name, got, tc.max)
		}
	}
}
