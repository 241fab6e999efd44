package dnswire

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"
)

// TestNameEncodeAllocFree pins the hot encode path: AppendWire into a
// buffer with spare capacity must not allocate.
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

	// A whole signed NXDOMAIN against a snapshot the reference decoder
	// makes from a copy of its wire (a fresh allocation per field, nothing
	// shared with Unpack): after the input is scribbled over and the
	// served corpus is decoded 1,000 times on four goroutines, the first
	// Message is still DeepEqual to the snapshot. Nothing a later Unpack
	// allocates or writes — on this goroutine or another — reaches memory
	// an earlier Message holds.
	nxdomain, _ := benchResponses(t)
	first, err := Unpack(nxdomain)
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := referenceUnpack(bytes.Clone(nxdomain))
	if err != nil {
		t.Fatal(err)
	}
	for i := range nxdomain {
		nxdomain[i] = 0xFF
	}
	const passes, workers = 1000, 4
	corpus := servedCorpus(t)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := w; pass < passes; pass += workers {
				for _, wire := range corpus {
					if _, err := Unpack(wire); err != nil {
						t.Errorf("served response rejected: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(first, snapshot) {
		t.Errorf("a decoded NXDOMAIN changed under later decodes:\n got  %v\n want %v", first, snapshot)
	}
}

// TestUnpackSlicesStayCapLimited appends to every slice of a decoded
// NXDOMAIN response — the question list, each section, every type bitmap
// and every byte field — one at a time, cuts it back to its length, and
// requires the whole Message to equal a fresh decode: however Unpack
// packs a message's slices into shared allocations, no slice may have
// spare capacity that reaches into a neighbour.
func TestUnpackSlicesStayCapLimited(t *testing.T) {
	nxdomain, _ := benchResponses(t)
	decode := func() *Message {
		t.Helper()
		m, err := Unpack(nxdomain)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	type grower struct {
		name string
		grow func(*Message)
	}
	var growers []grower
	add := func(name string, grow func(*Message)) { growers = append(growers, grower{name, grow}) }
	shape := decode()
	add("questions", func(m *Message) {
		m.Questions = regrow(m.Questions, Question{Name: "alien.", Type: TypeANY, Class: ClassANY})
	})
	alien := RR{Name: "alien.", Class: ClassANY, Data: A{Addr: netip.MustParseAddr("203.0.113.9")}}
	for s, sec := range [][]RR{shape.Answers, shape.Authority, shape.Additional} {
		section := func(m *Message) *[]RR { return []*[]RR{&m.Answers, &m.Authority, &m.Additional}[s] }
		if sec != nil {
			add(fmt.Sprintf("section %d", s), func(m *Message) { *section(m) = regrow(*section(m), alien) })
		}
		for i, rr := range sec {
			// Byte fields sit inside interface-boxed struct values: a grower
			// unboxes the record's RDATA, regrows one field and reboxes it.
			field := func(name string, grow func(RData) RData) {
				add(fmt.Sprintf("section %d record %d %s", s, i, name), func(m *Message) {
					rr := &(*section(m))[i]
					rr.Data = grow(rr.Data)
				})
			}
			switch rr.Data.(type) {
			case RRSIG:
				field("Signature", func(rd RData) RData {
					r := rd.(RRSIG)
					r.Signature = regrow(r.Signature, 0xEE)
					return r
				})
			case NSEC3:
				field("Salt", func(rd RData) RData {
					r := rd.(NSEC3)
					r.Salt = regrow(r.Salt, 0xEE)
					return r
				})
				field("NextHashedOwner", func(rd RData) RData {
					r := rd.(NSEC3)
					r.NextHashedOwner = regrow(r.NextHashedOwner, 0xEE)
					return r
				})
				field("Types", func(rd RData) RData {
					r := rd.(NSEC3)
					r.Types = regrow(r.Types, TypeANY)
					return r
				})
			}
		}
	}
	// The questions, the authority and additional sections, 4 signatures
	// and 3 × (salt, next hash, bitmap).
	if want := 1 + 2 + 4 + 3*3; len(growers) != want {
		t.Fatalf("%d slices found in the decoded message, want %d", len(growers), want)
	}
	for _, g := range growers {
		victim := decode()
		g.grow(victim)
		if fresh := decode(); !reflect.DeepEqual(victim, fresh) {
			t.Errorf("appending to %s reached beyond it:\n got  %v\n want %v", g.name, victim, fresh)
		}
	}
}

// regrow appends four copies of e to s and cuts the result back to s's
// length, so that an append which found spare capacity has written just
// past s's end. A nil slice has no memory to share and stays nil.
func regrow[S ~[]E, E any](s S, e E) S {
	if s == nil {
		return nil
	}
	return append(s, e, e, e, e)[:len(s)]
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

// TestUnpackAllocCeiling pins what decoding costs in allocations, exactly
// — a regression fails it, and so does a drop nobody explained: one
// block for the Message, its question and its OPT, one record slab, one
// copy of the wire from the first byte field, one bitmap slab, the first
// distinct name and one arena for the rest, and one boxed RDATA per
// record other than the OPT. The NXDOMAIN response (8 boxed records of
// its 14) cost 45 when every byte field, every repeated name and every
// slice growth step allocated, and 23 with one string per distinct name,
// one bitmap per NSEC3 and the question and OPT apart.
func TestUnpackAllocCeiling(t *testing.T) {
	nxdomain, positive := benchResponses(t)
	query, err := NewQuery(3, MustParseName("u0123456789abcdef.bench.example"), TypeA, true).Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		wire []byte
		want float64
	}{
		{"784-octet NXDOMAIN", nxdomain, 14},
		{"199-octet positive", positive, 8},
		{"query", query, 3},
	} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := Unpack(tc.wire); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("Unpack of the %s allocates %.0f times, want exactly %.0f", tc.name, got, tc.want)
		}
	}
}

// TestReadReplyStatusAllocs pins the status reader's cost: nothing for
// the benchmark's signed NXDOMAIN reply, whose OPT carries no EDE, and
// for an EDE with text its slice and its string.
func TestReadReplyStatusAllocs(t *testing.T) {
	nxdomain, _ := benchResponses(t)
	m, err := Unpack(nxdomain)
	if err != nil {
		t.Fatal(err)
	}
	m.Additional[0].Data.(*OPT).EDEs = []EDE{{Code: EDEUnsupportedNSEC3Iter, Text: "limit 150"}}
	withEDE := mustPack(t, m)
	for _, tc := range []struct {
		name string
		wire []byte
		want float64
	}{
		{"784-octet NXDOMAIN", nxdomain, 0},
		{"the same with an EDE and its text", withEDE, 2},
	} {
		got := testing.AllocsPerRun(200, func() {
			if _, err := ReadReplyStatus(tc.wire); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("ReadReplyStatus of the %s allocates %.0f times, want exactly %.0f", tc.name, got, tc.want)
		}
	}
}

// querySink keeps NewQuery's message live so escape analysis cannot
// stack-allocate it.
var querySink *Message

// TestNewQuerySingleAlloc pins the query constructor every resolver,
// scanner and prober calls per upstream question: the message, its
// question, its additional section and the OPT are one allocation.
func TestNewQuerySingleAlloc(t *testing.T) {
	name := MustParseName("www.example.org.")
	if n := testing.AllocsPerRun(200, func() {
		querySink = NewQuery(7, name, TypeA, true)
	}); n != 1 {
		t.Errorf("NewQuery allocates %.1f times per run, want exactly 1", n)
	}
	o, ok := querySink.OPT()
	if !ok || !o.DO || o.UDPSize != DefaultUDPSize || len(querySink.Questions) != 1 || len(querySink.Additional) != 1 {
		t.Fatalf("NewQuery built %+v", querySink)
	}
}
