package dnswire

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func mkA(name string, ip string) RR {
	return RR{
		Name: MustParseName(name), Class: ClassIN, TTL: 300,
		Data: A{Addr: netip.MustParseAddr(ip)},
	}
}

func sampleMessage() *Message {
	return &Message{
		Header: Header{
			ID: 0x1234, Response: true, Authoritative: true,
			RecursionDesired: true, RecursionAvailable: true,
			AuthenticatedData: true, RCode: RCodeNoError,
		},
		Questions: []Question{{Name: MustParseName("www.example.com"), Type: TypeA, Class: ClassIN}},
		Answers:   []RR{mkA("www.example.com", "192.0.2.1")},
		Authority: []RR{
			{
				Name: MustParseName("example.com"), Class: ClassIN, TTL: 3600,
				Data: NS{Host: MustParseName("ns1.example.com")},
			},
			{
				Name: MustParseName("example.com"), Class: ClassIN, TTL: 3600,
				Data: SOA{
					MName: MustParseName("ns1.example.com"), RName: MustParseName("hostmaster.example.com"),
					Serial: 2024030501, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
				},
			},
		},
		Additional: []RR{mkA("ns1.example.com", "192.0.2.53")},
	}
}

func TestMessagePackUnpackRoundTrip(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	m := sampleMessage()
	compressed, err := m.PackBuffer(nil, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := m.PackBuffer(nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) >= len(plain) {
		t.Fatalf("compression did not help: %d >= %d", len(compressed), len(plain))
	}
	// Both decode to the same message.
	a, err := Unpack(compressed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Unpack(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("compressed and plain decode differently")
	}
}

// TestQueriesRenderWithoutTheCompressionTable: where PackBuffer leaves
// the compression table out — no name of the message can point at an
// earlier one — it renders the octets the table would have.
func TestQueriesRenderWithoutTheCompressionTable(t *testing.T) {
	ede := &OPT{UDPSize: 1232, DO: true, EDEs: []EDE{{Code: EDEOther, Text: "x"}}}
	skipped := 0
	for i, m := range []*Message{
		NewQuery(1, MustParseName("www.example.com"), TypeA, true),
		NewQuery(2, MustParseName("a.a.a.example.a"), TypeTXT, false),
		NewQuery(3, Root, TypeNS, true),
		{Questions: []Question{{Name: MustParseName("no.edns.example"), Type: TypeA, Class: ClassIN}}},
		{Additional: []RR{ede.AsRR(), (&OPT{UDPSize: 512}).AsRR()}},
		{Header: Header{ID: 6}},
		sampleMessage(),
		{Questions: []Question{{Name: MustParseName("x.example"), Type: TypeA, Class: ClassIN}, {Name: MustParseName("x.example"), Type: TypeAAAA, Class: ClassIN}}},
		{Questions: []Question{{Name: MustParseName("x.example"), Type: TypeA, Class: ClassIN}},
			Additional: []RR{{Name: MustParseName("x.example"), Class: ClassIN, Data: A{Addr: netip.MustParseAddr("192.0.2.1")}}}},
	} {
		counts := [3]int{len(m.Answers), len(m.Authority), len(m.Additional)}
		got, err := m.PackBuffer(nil, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.packCounts(nil, counts, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("message %d: without the table %x, with it %x", i, got, want)
		}
		if !m.hasPointerTargets(counts) {
			skipped++
		} else if plain, _ := m.PackBuffer(nil, 0, false); len(plain) <= len(got) {
			t.Errorf("message %d has names to compress and was not compressed", i)
		}
	}
	if skipped != 6 {
		t.Errorf("the table was left out for %d of the messages, want the first 6", skipped)
	}
}

func TestTruncationDropsRecordsAndSetsTC(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 1, Response: true},
		Questions: []Question{{Name: MustParseName("example.com"), Type: TypeTXT, Class: ClassIN}},
	}
	for i := 0; i < 64; i++ {
		m.Answers = append(m.Answers, RR{
			Name: MustParseName("example.com"), Class: ClassIN, TTL: 60,
			Data: TXT{Strings: []string{string(bytes.Repeat([]byte{'x'}, 200))}},
		})
	}
	wire, err := m.PackBuffer(nil, 512, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) > 512 {
		t.Fatalf("packed %d > 512", len(wire))
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Header.Truncated {
		t.Fatal("TC bit not set")
	}
	if len(got.Answers) >= 64 {
		t.Fatal("no records dropped")
	}
}

func TestAllRDataTypesRoundTrip(t *testing.T) {
	owner := MustParseName("test.example.com")
	rrs := []RR{
		{Name: owner, Class: ClassIN, TTL: 1, Data: A{Addr: netip.MustParseAddr("203.0.113.7")}},
		{Name: owner, Class: ClassIN, TTL: 2, Data: AAAA{Addr: netip.MustParseAddr("2001:db8::1")}},
		{Name: owner, Class: ClassIN, TTL: 3, Data: NS{Host: MustParseName("ns.example.net")}},
		{Name: owner, Class: ClassIN, TTL: 4, Data: CNAME{Target: MustParseName("alias.example.org")}},
		{Name: owner, Class: ClassIN, TTL: 5, Data: PTR{Target: MustParseName("host.example.com")}},
		{Name: owner, Class: ClassIN, TTL: 6, Data: MX{Preference: 10, Host: MustParseName("mail.example.com")}},
		{Name: owner, Class: ClassIN, TTL: 7, Data: TXT{Strings: []string{"hello", "world"}}},
		{Name: owner, Class: ClassIN, TTL: 8, Data: SOA{
			MName: MustParseName("ns.example.com"), RName: MustParseName("root.example.com"),
			Serial: 1, Refresh: 2, Retry: 3, Expire: 4, Minimum: 5,
		}},
		{Name: owner, Class: ClassIN, TTL: 9, Data: DNSKEY{
			Flags: DNSKEYFlagZone | DNSKEYFlagSEP, Protocol: 3,
			Algorithm: AlgECDSAP256SHA256, PublicKey: bytes.Repeat([]byte{0xAB}, 64),
		}},
		{Name: owner, Class: ClassIN, TTL: 10, Data: RRSIG{
			TypeCovered: TypeA, Algorithm: AlgECDSAP256SHA256, Labels: 3,
			OrigTTL: 300, Expiration: 1700000000, Inception: 1690000000,
			KeyTag: 12345, SignerName: MustParseName("example.com"),
			Signature: bytes.Repeat([]byte{0xCD}, 64),
		}},
		{Name: owner, Class: ClassIN, TTL: 11, Data: DS{
			KeyTag: 4242, Algorithm: AlgECDSAP256SHA256, DigestType: DigestSHA256,
			Digest: bytes.Repeat([]byte{0xEF}, 32),
		}},
		{Name: owner, Class: ClassIN, TTL: 12, Data: NSEC{
			NextName: MustParseName("next.example.com"),
			Types:    NewTypeBitmap(TypeA, TypeAAAA, TypeRRSIG, TypeNSEC),
		}},
		{Name: owner, Class: ClassIN, TTL: 13, Data: NSEC3{
			HashAlg: NSEC3HashSHA1, Flags: NSEC3FlagOptOut, Iterations: 100,
			Salt:            []byte{0xAA, 0xBB},
			NextHashedOwner: bytes.Repeat([]byte{0x11}, 20),
			Types:           NewTypeBitmap(TypeA, TypeRRSIG),
		}},
		{Name: owner, Class: ClassIN, TTL: 14, Data: NSEC3PARAM{
			HashAlg: NSEC3HashSHA1, Iterations: 5, Salt: []byte{0x01, 0x02, 0x03},
		}},
		{Name: owner, Class: ClassIN, TTL: 15, Data: Generic{T: Type(4242), Data: []byte{1, 2, 3}}},
	}
	m := &Message{
		Header:    Header{ID: 7, Response: true},
		Questions: []Question{{Name: owner, Type: TypeANY, Class: ClassIN}},
		Answers:   rrs,
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(rrs) {
		t.Fatalf("got %d answers, want %d", len(got.Answers), len(rrs))
	}
	for i := range rrs {
		if !reflect.DeepEqual(got.Answers[i], rrs[i]) {
			t.Errorf("answer %d (%s): got %+v want %+v",
				i, rrs[i].Type(), got.Answers[i], rrs[i])
		}
	}
}

func TestEDNSAndEDERoundTrip(t *testing.T) {
	m := NewQuery(99, MustParseName("it-151.rfc9276-in-the-wild.com"), TypeA, true)
	opt, ok := m.OPT()
	if !ok {
		t.Fatal("no OPT")
	}
	if !opt.DO {
		t.Fatal("DO not set")
	}
	// Simulate a Technitium-style SERVFAIL with EDE 27.
	resp := &Message{
		Header:    Header{ID: 99, Response: true, RCode: RCodeServFail},
		Questions: m.Questions,
	}
	rOpt := &OPT{UDPSize: 1232, DO: true, EDEs: []EDE{{
		Code: EDEUnsupportedNSEC3Iter,
		Text: "NSEC3 iterations 151 exceeds limit 150",
	}}}
	resp.Additional = append(resp.Additional, rOpt.AsRR())
	wire, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	gOpt, ok := got.OPT()
	if !ok {
		t.Fatal("no OPT in decoded response")
	}
	if len(gOpt.EDEs) != 1 || gOpt.EDEs[0].Code != EDEUnsupportedNSEC3Iter {
		t.Fatalf("EDE = %+v", gOpt.EDEs)
	}
	if gOpt.EDEs[0].Text != "NSEC3 iterations 151 exceeds limit 150" {
		t.Fatalf("EDE text = %q", gOpt.EDEs[0].Text)
	}
}

func TestExtendedRCode(t *testing.T) {
	// BADCOOKIE (23) needs 5 bits: 7 in the header, 1 in the OPT TTL's
	// high byte (RFC 6891 §6.1.3).
	opt := &OPT{UDPSize: DefaultUDPSize, ExtRCodeHigh: 1}
	m := &Message{Header: Header{ID: 1, Response: true, RCode: 7},
		Additional: []RR{{Name: Root, Class: Class(opt.UDPSize), Data: opt}}}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExtendedRCode() != RCode(23) {
		t.Fatalf("ExtendedRCode = %d", got.ExtendedRCode())
	}
}

func TestUnpackRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		bytes.Repeat([]byte{0xFF}, 11),
		// Valid header claiming 1 question but no body.
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0},
	}
	for i, c := range cases {
		if _, err := Unpack(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestUnpackRejectsTrailingBytes(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(append(wire, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestPropMessageRoundTripFuzzedNames(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := &Message{
			Header:    Header{ID: uint16(r.Uint32()), Response: r.Intn(2) == 0},
			Questions: []Question{{Name: randomName(r), Type: TypeA, Class: ClassIN}},
		}
		for i := 0; i < r.Intn(4); i++ {
			m.Answers = append(m.Answers, RR{
				Name: randomName(r), Class: ClassIN, TTL: r.Uint32(),
				Data: NS{Host: randomName(r)},
			})
		}
		wire, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropUnpackNeverPanics(t *testing.T) {
	// Unpack arbitrary mutations of a valid message; must never panic.
	base, err := sampleMessage().Pack()
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fuzz := append([]byte(nil), base...)
		for i := 0; i < 1+r.Intn(8); i++ {
			fuzz[r.Intn(len(fuzz))] = byte(r.Intn(256))
		}
		_, _ = Unpack(fuzz) // errors fine, panics not
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// readBitmap decodes one type bitmap with no message around it, into a
// slice of its own.
func readBitmap(data []byte) (TypeBitmap, error) {
	n, err := bitmapTypes(data)
	if err != nil || n == 0 {
		return nil, err
	}
	return appendBitmapTypes(make(TypeBitmap, 0, n), data), nil
}

func TestTypeBitmap(t *testing.T) {
	tb := NewTypeBitmap(TypeRRSIG, TypeA, TypeA, TypeNSEC3, Type(1234))
	if len(tb) != 4 {
		t.Fatalf("dedup failed: %v", tb)
	}
	for _, typ := range []Type{TypeA, TypeRRSIG, TypeNSEC3, Type(1234)} {
		if !tb.Contains(typ) {
			t.Errorf("missing %s", typ)
		}
	}
	if tb.Contains(TypeSOA) {
		t.Error("false positive")
	}
	wire := appendBitmap(nil, tb)
	back, err := readBitmap(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tb) {
		t.Fatalf("bitmap round trip: %v != %v", back, tb)
	}
}

func TestPropTypeBitmapRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		types := make([]Type, len(raw))
		for i, v := range raw {
			types[i] = Type(v)
		}
		tb := NewTypeBitmap(types...)
		back, err := readBitmap(appendBitmap(nil, tb))
		if err != nil {
			return false
		}
		if len(tb) == 0 {
			return len(back) == 0
		}
		return reflect.DeepEqual(back, tb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReadBitmapRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		{0x00},                               // truncated header
		{0x00, 0x00},                         // zero-length window
		{0x00, 0x21},                         // window length > 32
		{0x00, 0x02, 0xFF},                   // truncated window data
		{0x01, 0x01, 0x80, 0x00, 0x01, 0x80}, // windows out of order
	}
	for i, c := range cases {
		if _, err := readBitmap(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMessageStringSmoke(t *testing.T) {
	s := sampleMessage().String()
	for _, want := range []string{"NOERROR", "QUESTION", "ANSWER", "AUTHORITY", "192.0.2.1"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
