package dnswire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/netip"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// This file keeps the field-by-field message decoder as a test-only
// reference: a fresh make per byte field, an append per record, a full
// name walk per name, a scratch copy per type bitmap. It shares no
// code with Unpack below the u8/u16/u32 level — names, RDATA, OPT and
// bitmaps are all decoded by the ref* functions here — so a decoder
// that shares memory between fields, memoizes names or sizes its
// slices differently must still produce a DeepEqual *Message and the
// same error text, or TestUnpackMatchesReference and
// FuzzUnpackDifferential fail.

type refDecoder struct {
	msg []byte
	off int
	end int
}

func (d *refDecoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > d.end {
		return nil, fmt.Errorf("dnswire: need %d octets, have %d", n, d.end-d.off)
	}
	out := make([]byte, n)
	copy(out, d.msg[d.off:d.off+n])
	d.off += n
	return out, nil
}

func (d *refDecoder) u8() (uint8, error) {
	if d.off >= d.end {
		return 0, fmt.Errorf("dnswire: truncated u8")
	}
	v := d.msg[d.off]
	d.off++
	return v, nil
}

func (d *refDecoder) u16() (uint16, error) {
	if d.off+2 > d.end {
		return 0, fmt.Errorf("dnswire: truncated u16")
	}
	v := binary.BigEndian.Uint16(d.msg[d.off:])
	d.off += 2
	return v, nil
}

func (d *refDecoder) u32() (uint32, error) {
	if d.off+4 > d.end {
		return 0, fmt.Errorf("dnswire: truncated u32")
	}
	v := binary.BigEndian.Uint32(d.msg[d.off:])
	d.off += 4
	return v, nil
}

func (d *refDecoder) name() (Name, error) {
	n, next, err := refReadName(d.msg, d.off)
	if err != nil {
		return "", err
	}
	if next > d.end {
		return "", fmt.Errorf("dnswire: name overruns field")
	}
	d.off = next
	return n, nil
}

func (d *refDecoder) lenPrefixed() ([]byte, error) {
	l, err := d.u8()
	if err != nil {
		return nil, err
	}
	return d.bytes(int(l))
}

// refReadName walks a possibly-compressed name octet by octet.
func refReadName(msg []byte, off int) (Name, int, error) {
	var pres []byte
	ptrBudget := 64
	end := -1
	wireLen := 1
	for {
		if off < 0 || off >= len(msg) {
			return "", 0, ErrNameTrunc
		}
		c := msg[off]
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			if len(pres) == 0 {
				return Root, end, nil
			}
			return Name(pres), end, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrNameTrunc
			}
			if ptrBudget--; ptrBudget < 0 {
				return "", 0, ErrBadPointer
			}
			ptr := int(c&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if ptr >= off {
				return "", 0, ErrBadPointer
			}
			off = ptr
		case c&0xC0 != 0:
			return "", 0, fmt.Errorf("dnswire: reserved label type 0x%02x", c&0xC0)
		default:
			if off+1+int(c) > len(msg) {
				return "", 0, ErrNameTrunc
			}
			wireLen += 1 + int(c)
			if wireLen > MaxNameWireLen {
				return "", 0, ErrNameTooLong
			}
			for _, b := range msg[off+1 : off+1+int(c)] {
				b = lowerByte(b)
				switch {
				case b == '.' || b == '\\':
					pres = append(pres, '\\', b)
				case b < '!' || b > '~':
					pres = append(pres, '\\', '0'+b/100, '0'+b/10%10, '0'+b%10)
				default:
					pres = append(pres, b)
				}
			}
			pres = append(pres, '.')
			off += 1 + int(c)
		}
	}
}

func refReadBitmap(data []byte) (TypeBitmap, error) {
	var tb TypeBitmap
	lastWindow := -1
	for len(data) > 0 {
		if len(data) < 2 {
			return nil, fmt.Errorf("dnswire: truncated type bitmap")
		}
		window := int(data[0])
		length := int(data[1])
		if length == 0 || length > 32 {
			return nil, fmt.Errorf("dnswire: bad bitmap window length %d", length)
		}
		if window <= lastWindow {
			return nil, fmt.Errorf("dnswire: bitmap windows out of order")
		}
		lastWindow = window
		data = data[2:]
		if len(data) < length {
			return nil, fmt.Errorf("dnswire: truncated bitmap window")
		}
		for octet := 0; octet < length; octet++ {
			for bit := 0; bit < 8; bit++ {
				if data[octet]&(0x80>>bit) != 0 {
					tb = append(tb, Type(window<<8|octet*8+bit))
				}
			}
		}
		data = data[length:]
	}
	return tb, nil
}

func refParseOPT(d *refDecoder, class Class, ttl uint32, rdlen int) (*OPT, error) {
	o := &OPT{
		UDPSize:      uint16(class),
		ExtRCodeHigh: uint8(ttl >> 24),
		Version:      uint8(ttl >> 16),
		DO:           ttl&(1<<15) != 0,
	}
	end := d.off + rdlen
	if end > d.end {
		return nil, fmt.Errorf("dnswire: OPT RDATA overruns message")
	}
	for d.off < end {
		code, err := d.u16()
		if err != nil {
			return nil, err
		}
		olen, err := d.u16()
		if err != nil {
			return nil, err
		}
		data, err := d.bytes(int(olen))
		if err != nil {
			return nil, err
		}
		switch code {
		case optCodeEDE:
			if len(data) < 2 {
				return nil, fmt.Errorf("dnswire: EDE option shorter than 2 octets")
			}
			o.EDEs = append(o.EDEs, EDE{
				Code: EDECode(binary.BigEndian.Uint16(data)),
				Text: string(data[2:]),
			})
		default:
			o.Unknown = append(o.Unknown, OptOption{Code: code, Data: data})
		}
	}
	return o, nil
}

func refParseRData(t Type, msg []byte, off, rdlen int) (RData, error) {
	end := off + rdlen
	if end > len(msg) {
		return nil, fmt.Errorf("dnswire: RDATA overruns message")
	}
	d := &refDecoder{msg: msg, off: off, end: end}
	var rd RData
	var err error
	switch t {
	case TypeA:
		var raw []byte
		if raw, err = d.bytes(4); err == nil {
			rd = A{Addr: netip.AddrFrom4([4]byte(raw))}
		}
	case TypeAAAA:
		var raw []byte
		if raw, err = d.bytes(16); err == nil {
			rd = AAAA{Addr: netip.AddrFrom16([16]byte(raw))}
		}
	case TypeNS:
		var n Name
		if n, err = d.name(); err == nil {
			rd = NS{Host: n}
		}
	case TypeCNAME:
		var n Name
		if n, err = d.name(); err == nil {
			rd = CNAME{Target: n}
		}
	case TypePTR:
		var n Name
		if n, err = d.name(); err == nil {
			rd = PTR{Target: n}
		}
	case TypeMX:
		var r MX
		if r.Preference, err = d.u16(); err == nil {
			if r.Host, err = d.name(); err == nil {
				rd = r
			}
		}
	case TypeTXT:
		var r TXT
		for d.off < d.end {
			var l uint8
			var b []byte
			if l, err = d.u8(); err != nil {
				break
			}
			if b, err = d.bytes(int(l)); err != nil {
				break
			}
			r.Strings = append(r.Strings, string(b))
		}
		if err == nil {
			rd = r
		}
	case TypeSOA:
		var r SOA
		if r.MName, err = d.name(); err != nil {
			break
		}
		if r.RName, err = d.name(); err != nil {
			break
		}
		for _, p := range []*uint32{&r.Serial, &r.Refresh, &r.Retry, &r.Expire, &r.Minimum} {
			if *p, err = d.u32(); err != nil {
				break
			}
		}
		if err == nil {
			rd = r
		}
	case TypeDNSKEY:
		var r DNSKEY
		var alg uint8
		if r.Flags, err = d.u16(); err != nil {
			break
		}
		if r.Protocol, err = d.u8(); err != nil {
			break
		}
		if alg, err = d.u8(); err != nil {
			break
		}
		r.Algorithm = SecAlgorithm(alg)
		if r.PublicKey, err = d.bytes(d.end - d.off); err == nil {
			rd = r
		}
	case TypeRRSIG:
		var r RRSIG
		var tc uint16
		var alg uint8
		if tc, err = d.u16(); err != nil {
			break
		}
		r.TypeCovered = Type(tc)
		if alg, err = d.u8(); err != nil {
			break
		}
		r.Algorithm = SecAlgorithm(alg)
		if r.Labels, err = d.u8(); err != nil {
			break
		}
		if r.OrigTTL, err = d.u32(); err != nil {
			break
		}
		if r.Expiration, err = d.u32(); err != nil {
			break
		}
		if r.Inception, err = d.u32(); err != nil {
			break
		}
		if r.KeyTag, err = d.u16(); err != nil {
			break
		}
		if r.SignerName, err = d.name(); err != nil {
			break
		}
		if r.Signature, err = d.bytes(d.end - d.off); err == nil {
			rd = r
		}
	case TypeDS:
		var r DS
		var alg, dt uint8
		if r.KeyTag, err = d.u16(); err != nil {
			break
		}
		if alg, err = d.u8(); err != nil {
			break
		}
		r.Algorithm = SecAlgorithm(alg)
		if dt, err = d.u8(); err != nil {
			break
		}
		r.DigestType = DigestType(dt)
		if r.Digest, err = d.bytes(d.end - d.off); err == nil {
			rd = r
		}
	case TypeNSEC:
		var r NSEC
		var raw []byte
		if r.NextName, err = d.name(); err != nil {
			break
		}
		if raw, err = d.bytes(d.end - d.off); err != nil {
			break
		}
		if r.Types, err = refReadBitmap(raw); err == nil {
			rd = r
		}
	case TypeNSEC3:
		var r NSEC3
		var alg uint8
		var raw []byte
		if alg, err = d.u8(); err != nil {
			break
		}
		r.HashAlg = NSEC3HashAlg(alg)
		if r.Flags, err = d.u8(); err != nil {
			break
		}
		if r.Iterations, err = d.u16(); err != nil {
			break
		}
		if r.Salt, err = d.lenPrefixed(); err != nil {
			break
		}
		if r.NextHashedOwner, err = d.lenPrefixed(); err != nil {
			break
		}
		if raw, err = d.bytes(d.end - d.off); err != nil {
			break
		}
		if r.Types, err = refReadBitmap(raw); err == nil {
			rd = r
		}
	case TypeNSEC3PARAM:
		var r NSEC3PARAM
		var alg uint8
		if alg, err = d.u8(); err != nil {
			break
		}
		r.HashAlg = NSEC3HashAlg(alg)
		if r.Flags, err = d.u8(); err != nil {
			break
		}
		if r.Iterations, err = d.u16(); err != nil {
			break
		}
		if r.Salt, err = d.lenPrefixed(); err == nil {
			rd = r
		}
	default:
		raw, _ := d.bytes(end - d.off)
		rd = Generic{T: t, Data: raw}
	}
	if err != nil {
		return nil, fmt.Errorf("dnswire: parsing %s RDATA: %w", t, err)
	}
	if d.off != end {
		return nil, fmt.Errorf("dnswire: %s RDATA has %d trailing octets", t, end-d.off)
	}
	return rd, nil
}

func refUnpackRR(d *refDecoder) (RR, error) {
	var rr RR
	var err error
	if rr.Name, err = d.name(); err != nil {
		return rr, err
	}
	t16, err := d.u16()
	if err != nil {
		return rr, err
	}
	t := Type(t16)
	c, err := d.u16()
	if err != nil {
		return rr, err
	}
	rr.Class = Class(c)
	if rr.TTL, err = d.u32(); err != nil {
		return rr, err
	}
	rdlen, err := d.u16()
	if err != nil {
		return rr, err
	}
	if t == TypeOPT {
		opt, err := refParseOPT(d, rr.Class, rr.TTL, int(rdlen))
		if err != nil {
			return rr, err
		}
		rr.Data = opt
		return rr, nil
	}
	rr.Data, err = refParseRData(t, d.msg, d.off, int(rdlen))
	if err != nil {
		return rr, err
	}
	d.off += int(rdlen)
	return rr, nil
}

// referenceUnpack is the decoder Unpack is compared against.
func referenceUnpack(msg []byte) (*Message, error) {
	d := &refDecoder{msg: msg, end: len(msg)}
	var m Message
	id, err := d.u16()
	if err != nil {
		return nil, err
	}
	flags, err := d.u16()
	if err != nil {
		return nil, err
	}
	m.Header = headerFromFlags(flags)
	m.Header.ID = id
	var counts [4]uint16
	for i := range counts {
		if counts[i], err = d.u16(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < int(counts[0]); i++ {
		var q Question
		if q.Name, err = d.name(); err != nil {
			return nil, fmt.Errorf("dnswire: question %d: %w", i, err)
		}
		t, err := d.u16()
		if err != nil {
			return nil, err
		}
		c, err := d.u16()
		if err != nil {
			return nil, err
		}
		q.Type, q.Class = Type(t), Class(c)
		m.Questions = append(m.Questions, q)
	}
	for s, dstp := range []*[]RR{&m.Answers, &m.Authority, &m.Additional} {
		for i := 0; i < int(counts[s+1]); i++ {
			rr, err := refUnpackRR(d)
			if err != nil {
				return nil, fmt.Errorf("dnswire: section %d record %d: %w", s, i, err)
			}
			*dstp = append(*dstp, rr)
		}
	}
	if d.off != len(msg) {
		return nil, fmt.Errorf("dnswire: %d trailing octets after message", len(msg)-d.off)
	}
	return &m, nil
}

// checkAgainstReference is the differential property: the same input
// yields a DeepEqual *Message (nil-versus-empty slices included) or an
// error with the same text.
func checkAgainstReference(t testing.TB, wire []byte) (*Message, error) {
	t.Helper()
	in := bytes.Clone(wire)
	got, gotErr := Unpack(in)
	want, wantErr := referenceUnpack(wire)
	if !bytes.Equal(in, wire) {
		t.Fatalf("Unpack wrote to its input\n in  %x\n now %x", wire, in)
	}
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("Unpack err = %v, reference err = %v\n wire %x", gotErr, wantErr, wire)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("Unpack err = %q, reference err = %q\n wire %x", gotErr, wantErr, wire)
		}
		if got != nil {
			t.Fatalf("Unpack returned a Message with error %v", gotErr)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("Unpack differs from the reference\n got  %#v\n want %#v\n wire %x", got, want, wire)
	}
	// QuestionName reads one field of what Unpack reads: where the whole
	// message decodes and has a question, the same first name.
	if gotErr == nil && len(got.Questions) > 0 {
		if name, err := QuestionName(wire); err != nil || name != got.Questions[0].Name {
			t.Fatalf("QuestionName = %q, %v; Unpack's first question is %q\n wire %x", name, err, got.Questions[0].Name, wire)
		}
	}
	return got, gotErr
}

func mustPack(t testing.TB, m *Message) []byte {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// everyRDataMessages are hand-built messages that between them carry
// every RData type this package has a codec for, an EDE-carrying OPT
// with an unknown option beside it, a bitmap spanning three windows and
// an empty one.
func everyRDataMessages(t testing.TB) [][]byte {
	t.Helper()
	apex := MustParseName("example.org")
	www := apex.MustChild("www")
	sig := func(owner Name, covered Type) RR {
		return RR{Name: owner, Class: ClassIN, TTL: 300, Data: RRSIG{
			TypeCovered: covered, Algorithm: AlgECDSAP256SHA256, Labels: uint8(owner.CountLabels()),
			OrigTTL: 300, Expiration: 1717200000, Inception: 1709251200, KeyTag: 4711,
			SignerName: apex, Signature: bytes.Repeat([]byte{byte(covered)}, 64),
		}}
	}
	hashOwner := apex.MustChild("0p9mhaveqvm6t7vbl5lop2u3t2rp3tom")
	positive := &Message{
		Header:    Header{ID: 7, Response: true, Authoritative: true},
		Questions: []Question{{Name: www, Type: TypeANY, Class: ClassIN}},
		Answers: []RR{
			{Name: www, Class: ClassIN, TTL: 300, Data: A{Addr: netip.MustParseAddr("192.0.2.1")}},
			{Name: www, Class: ClassIN, TTL: 300, Data: AAAA{Addr: netip.MustParseAddr("2001:db8::1")}},
			{Name: www, Class: ClassIN, TTL: 300, Data: TXT{Strings: []string{"one", "", strings.Repeat("x", 255)}}},
			{Name: www, Class: ClassIN, TTL: 300, Data: TXT{}},
			{Name: www, Class: ClassIN, TTL: 300, Data: MX{Preference: 10, Host: apex.MustChild("mail")}},
			{Name: apex.MustChild("alias"), Class: ClassIN, TTL: 300, Data: CNAME{Target: www}},
			{Name: MustParseName("1.2.0.192.in-addr.arpa"), Class: ClassIN, TTL: 300, Data: PTR{Target: www}},
			sig(www, TypeA),
		},
		Authority: []RR{
			{Name: apex, Class: ClassIN, TTL: 3600, Data: NS{Host: apex.MustChild("ns1")}},
			{Name: apex, Class: ClassIN, TTL: 3600, Data: SOA{
				MName: apex.MustChild("ns1"), RName: apex.MustChild("hostmaster"),
				Serial: 2024030101, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}},
			{Name: apex, Class: ClassIN, TTL: 3600, Data: DNSKEY{
				Flags: DNSKEYFlagZone | DNSKEYFlagSEP, Protocol: 3, Algorithm: AlgECDSAP256SHA256,
				PublicKey: bytes.Repeat([]byte{0xA5}, 64)}},
			{Name: apex, Class: ClassIN, TTL: 3600, Data: DS{
				KeyTag: 4711, Algorithm: AlgECDSAP256SHA256, DigestType: DigestSHA256,
				Digest: bytes.Repeat([]byte{0x5A}, 32)}},
			{Name: apex, Class: ClassIN, TTL: 0, Data: NSEC3PARAM{HashAlg: NSEC3HashSHA1, Iterations: 150, Salt: []byte{0xAA, 0xBB}}},
			{Name: apex, Class: ClassIN, TTL: 0, Data: NSEC3PARAM{HashAlg: NSEC3HashSHA1}},
			{Name: apex, Class: ClassIN, TTL: 300, Data: NSEC{
				NextName: www, Types: NewTypeBitmap(TypeA, TypeNS, TypeSOA, TypeRRSIG, TypeNSEC, TypeDNSKEY, Type(258), Type(65280))}},
			{Name: apex, Class: ClassIN, TTL: 300, Data: NSEC{NextName: apex}},
			{Name: hashOwner, Class: ClassIN, TTL: 300, Data: NSEC3{
				HashAlg: NSEC3HashSHA1, Flags: NSEC3FlagOptOut, Iterations: 5, Salt: []byte{1, 2, 3, 4},
				NextHashedOwner: bytes.Repeat([]byte{0x11}, 20),
				Types:           NewTypeBitmap(TypeA, TypeRRSIG, Type(1234), Type(40000))}},
			{Name: hashOwner, Class: ClassIN, TTL: 300, Data: NSEC3{HashAlg: NSEC3HashSHA1, NextHashedOwner: bytes.Repeat([]byte{0x22}, 20)}},
			sig(hashOwner, TypeNSEC3),
			{Name: www, Class: ClassIN, TTL: 300, Data: Generic{T: Type(4242), Data: []byte{9, 8, 7}}},
			{Name: www, Class: ClassIN, TTL: 300, Data: Generic{T: Type(4243), Data: []byte{}}},
		},
		Additional: []RR{(&OPT{
			UDPSize: 1232, DO: true, ExtRCodeHigh: 1, Version: 0,
			EDEs: []EDE{
				{Code: EDEUnsupportedNSEC3Iter, Text: "151 > 150"},
				{Code: EDEDNSSECBogus},
			},
			Unknown: []OptOption{{Code: 10, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}, {Code: 12, Data: []byte{}}},
		}).AsRR()},
	}
	query := NewQuery(9, www, TypeNSEC3PARAM, true)
	bare := &Message{Header: Header{ID: 1}}
	twoQuestions := &Message{
		Header:    Header{ID: 2, RecursionDesired: true},
		Questions: []Question{{Name: www, Type: TypeA, Class: ClassIN}, {Name: apex, Type: TypeSOA, Class: ClassIN}},
	}
	uncompressed, err := positive.PackBuffer(nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{mustPack(t, positive), uncompressed, mustPack(t, query), mustPack(t, bare), mustPack(t, twoQuestions)}
}

// wireBuilder assembles hostile messages by hand.
type wireBuilder struct{ b []byte }

func newWire(qd, an, ns, ar uint16) *wireBuilder {
	w := &wireBuilder{}
	w.u16(0x4242).u16(0x8400).u16(qd).u16(an).u16(ns).u16(ar)
	return w
}

func (w *wireBuilder) u16(v uint16) *wireBuilder {
	w.b = binary.BigEndian.AppendUint16(w.b, v)
	return w
}
func (w *wireBuilder) u32(v uint32) *wireBuilder {
	w.b = binary.BigEndian.AppendUint32(w.b, v)
	return w
}
func (w *wireBuilder) raw(p ...byte) *wireBuilder { w.b = append(w.b, p...); return w }
func (w *wireBuilder) off() int                   { return len(w.b) }
func (w *wireBuilder) ptr(to int) *wireBuilder    { return w.u16(0xC000 | uint16(to)) }

// labels writes literal labels without a terminator.
func (w *wireBuilder) labels(ls ...string) *wireBuilder {
	for _, l := range ls {
		w.b = append(w.b, byte(len(l)))
		w.b = append(w.b, l...)
	}
	return w
}

// rr writes a record header for an owner already written, then RDATA.
func (w *wireBuilder) rr(t Type, rdata []byte) *wireBuilder {
	return w.u16(uint16(t)).u16(uint16(ClassIN)).u32(300).u16(uint16(len(rdata))).raw(rdata...)
}

// pointerChainMessage is a response whose first answer's RDATA (a
// Generic type, so it is opaque) holds a chain of hops-1 compression
// pointers ending at the question name, whose second answer is an NS
// record naming the head of that chain — hops pointers in all, behind
// a literal label when literalHead is set, as a bare pointer otherwise
// — and whose third answer's owner is a bare pointer to that NS host:
// the chain reached through an already-decoded name, hops+1 pointers.
func pointerChainMessage(hops int, literalHead bool) []byte {
	w := newWire(1, 3, 0, 0)
	qname := w.off()
	w.labels("chain", "example").raw(0).u16(uint16(TypeA)).u16(uint16(ClassIN))
	w.ptr(qname)
	start := w.off() + 10 // past type, class, TTL and RDLENGTH
	var chain []byte
	prev := qname
	for i := 0; i < hops-1; i++ {
		chain = binary.BigEndian.AppendUint16(chain, 0xC000|uint16(prev))
		prev = start + 2*i
	}
	w.rr(Type(4242), chain)
	w.ptr(qname)
	nsHost := w.off() + 10
	var host []byte
	if literalHead {
		host = []byte{1, 'h'}
	}
	w.rr(TypeNS, binary.BigEndian.AppendUint16(host, 0xC000|uint16(prev)))
	w.ptr(nsHost).rr(TypeA, []byte{192, 0, 2, 1})
	return w.b
}

// hostileMessages is wire no honest encoder produces; each must be
// accepted or rejected exactly as the reference does.
func hostileMessages() map[string][]byte {
	out := map[string][]byte{}
	// 62 + 1 = 63 and 63 + 1 = 64 pointers decode; 64 + 1 = 65 does
	// not, though the 64-pointer NS host before it did.
	for _, hops := range []int{62, 63, 64, 65} {
		out[fmt.Sprintf("pointer chain %d then %d", hops, hops+1)] = pointerChainMessage(hops, false)
		out[fmt.Sprintf("literal-headed pointer chain %d then %d", hops, hops+1)] = pointerChainMessage(hops, true)
	}

	// A pointer into RDATA: the second owner points at the octets of the
	// first record's A RDATA, which happen to spell a label.
	w := newWire(1, 2, 0, 0)
	q := w.off()
	w.labels("p", "example").raw(0).u16(uint16(TypeA)).u16(uint16(ClassIN))
	w.ptr(q)
	rdataAt := w.off() + 10
	w.rr(TypeA, []byte{2, 'h', 'i', 0})
	w.ptr(rdataAt).rr(TypeA, []byte{192, 0, 2, 1})
	out["pointer into RDATA"] = w.b

	// A name overrunning its RDLENGTH: NS RDATA declared 3 octets, the
	// name needs 9.
	w = newWire(1, 1, 0, 0)
	q = w.off()
	w.labels("o", "example").raw(0).u16(uint16(TypeA)).u16(uint16(ClassIN))
	w.ptr(q).u16(uint16(TypeNS)).u16(uint16(ClassIN)).u32(300).u16(3).labels("ns", "example").raw(0)
	out["name overruns RDLENGTH"] = w.b

	// The same through a memoizable name: the NS host is a bare pointer
	// to the question, but RDLENGTH is 1.
	w = newWire(1, 2, 0, 0)
	q = w.off()
	w.labels("o", "example").raw(0).u16(uint16(TypeA)).u16(uint16(ClassIN))
	w.ptr(q).rr(TypeA, []byte{192, 0, 2, 1})
	w.ptr(q).u16(uint16(TypeNS)).u16(uint16(ClassIN)).u32(300).u16(1).ptr(q)
	out["pointer overruns RDLENGTH"] = w.b

	// Header counts of 65,535 over a 12- and a 40-octet message.
	out["hostile counts, 12 octets"] = newWire(0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF).b
	w = newWire(1, 0xFFFF, 0xFFFF, 0xFFFF)
	q = w.off()
	w.labels("c", "example").raw(0).u16(uint16(TypeA)).u16(uint16(ClassIN))
	w.ptr(q).rr(TypeA, []byte{192, 0, 2, 1})
	out["hostile counts, 40 octets"] = w.b
	out["hostile question count"] = newWire(0xFFFF, 0, 0, 0).raw(0, 0, 1, 0, 1, 0, 0, 1, 0, 1).b

	// 0x20 mixed case: three spellings of one owner at three offsets,
	// then pointers to each.
	w = newWire(1, 5, 0, 0)
	q = w.off()
	w.labels("MiXeD", "ExAmPlE").raw(0).u16(uint16(TypeA)).u16(uint16(ClassIN))
	second := w.off()
	w.labels("mixed", "EXAMPLE").raw(0).rr(TypeA, []byte{192, 0, 2, 1})
	third := w.off()
	w.labels("MIXED", "example").raw(0).rr(TypeA, []byte{192, 0, 2, 2})
	w.ptr(q).rr(TypeA, []byte{192, 0, 2, 3})
	w.ptr(second).rr(TypeA, []byte{192, 0, 2, 4})
	w.ptr(third).rr(TypeA, []byte{192, 0, 2, 5})
	out["0x20 mixed case"] = w.b

	// Labels that need escaping or folding next to ones that do not.
	w = newWire(1, 1, 0, 0)
	q = w.off()
	w.labels("a.b", `c\d`, "\x00\x7f\xff", "plain-09_~!", "UPPER").raw(0).u16(uint16(TypeA)).u16(uint16(ClassIN))
	w.labels("x").ptr(q).rr(TypeCNAME, binary.BigEndian.AppendUint16([]byte{1, 'y'}, 0xC000|uint16(q)))
	out["escaped labels"] = w.b

	// Zero-length salt, next-hash, signature, public key, digest and
	// option data.
	w = newWire(1, 5, 0, 1)
	q = w.off()
	w.labels("z", "example").raw(0).u16(uint16(TypeA)).u16(uint16(ClassIN))
	w.ptr(q).rr(TypeNSEC3, []byte{1, 0, 0, 0, 0, 0})
	w.ptr(q).rr(TypeNSEC3PARAM, []byte{1, 0, 0, 0, 0})
	w.ptr(q).rr(TypeRRSIG, append([]byte{0, 1, 13, 2, 0, 0, 1, 44, 0, 0, 0, 2, 0, 0, 0, 1, 0x12, 0x67}, 0xC0, byte(q)))
	w.ptr(q).rr(TypeDNSKEY, []byte{1, 1, 3, 13})
	w.ptr(q).rr(TypeDS, []byte{0x12, 0x67, 13, 2})
	w.raw(0).u16(uint16(TypeOPT)).u16(1232).u32(0x8000).u16(10).u16(10).u16(0).u16(optCodeEDE).u16(2).u16(27)
	out["zero-length fields"] = w.b
	w = newWire(0, 0, 0, 1)
	w.raw(0).u16(uint16(TypeOPT)).u16(1232).u32(0x8000).u16(4).u16(optCodeEDE).u16(0)
	out["EDE shorter than its code"] = w.b

	// Bitmap shapes: windows out of order, zero and over-long window
	// lengths, a truncated window, an all-zero window.
	for name, bm := range map[string][]byte{
		"bitmap out of order":  {1, 1, 0x40, 0, 1, 0x40},
		"bitmap zero length":   {0, 0},
		"bitmap long window":   append([]byte{0, 33}, make([]byte, 33)...),
		"bitmap truncated":     {0, 4, 0x40},
		"bitmap one octet":     {0},
		"bitmap all-zero bits": {0, 2, 0, 0, 3, 1, 0},
	} {
		w = newWire(1, 1, 0, 0)
		q = w.off()
		w.labels("b", "example").raw(0).u16(uint16(TypeA)).u16(uint16(ClassIN))
		w.ptr(q).rr(TypeNSEC, append([]byte{0}, bm...))
		out[name] = w.b
	}

	// Truncations and trailing octets of a well-formed message.
	good := newWire(1, 1, 0, 0)
	q = good.off()
	good.labels("t", "example").raw(0).u16(uint16(TypeA)).u16(uint16(ClassIN))
	good.ptr(q).rr(TypeA, []byte{192, 0, 2, 1})
	for cut := 0; cut < len(good.b); cut++ {
		out[fmt.Sprintf("truncated at %d", cut)] = good.b[:cut]
	}
	out["trailing octet"] = append(bytes.Clone(good.b), 0)
	out["forward pointer"] = newWire(1, 0, 0, 0).ptr(20).u16(1).u16(1).raw(0, 0, 0, 0).b
	out["self pointer"] = newWire(1, 0, 0, 0).ptr(12).u16(1).u16(1).b
	out["reserved label type"] = newWire(1, 0, 0, 0).raw(0x80, 0).u16(1).u16(1).b
	long := newWire(1, 0, 0, 0)
	for i := 0; i < 5; i++ {
		long.labels(strings.Repeat("l", 63))
	}
	out["name too long"] = long.raw(0).u16(1).u16(1).b
	return out
}

// hostileCorpusPath holds hostileMessages as a file, one "name: hex"
// line each in name order, so a package that cannot see this one's
// test code (netsim's FuzzServeWire) seeds from the same wire.
const hostileCorpusPath = "testdata/hostile.hex"

// TestHostileCorpusFile keeps the file equal to hostileMessages;
// HOSTILE_WRITE_CORPUS=1 rewrites it.
func TestHostileCorpusFile(t *testing.T) {
	msgs := hostileMessages()
	var b strings.Builder
	b.WriteString("# internal/dnswire's hostile wire (reference_test.go hostileMessages), one\n")
	b.WriteString("# \"name: hex\" line each. Regenerate with\n")
	b.WriteString("# HOSTILE_WRITE_CORPUS=1 go test -run TestHostileCorpusFile ./internal/dnswire\n")
	names := make([]string, 0, len(msgs))
	for name := range msgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s: %x\n", name, msgs[name])
	}
	if os.Getenv("HOSTILE_WRITE_CORPUS") != "" {
		if err := os.WriteFile(hostileCorpusPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(hostileCorpusPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != b.String() {
		t.Errorf("%s differs from hostileMessages: regenerate it", hostileCorpusPath)
	}
}

// TestAdvertisedUDPSize: the OPT is looked for where Message.OPT looks,
// in the additional section, whatever precedes it; and on hostile wire
// (hostileMessages, which TestHostileCorpusFile keeps equal to
// testdata/hostile.hex) and on every prefix of it the reader finds what
// Unpack finds, or nothing, without reading past the slice.
func TestAdvertisedUDPSize(t *testing.T) {
	name := MustParseName("www.example.com")
	a := RR{Name: name, Class: ClassIN, TTL: 1, Data: A{Addr: netip.MustParseAddr("192.0.2.1")}}
	opt := func(size uint16) RR { return (&OPT{UDPSize: size}).AsRR() }
	wires := hostileMessages()
	for _, tc := range []struct {
		name string
		m    Message
		size int
	}{
		{"no EDNS", Message{Questions: []Question{{Name: name, Type: TypeA, Class: ClassIN}}}, 0},
		{"OPT alone", Message{Additional: []RR{opt(4096)}}, 4096},
		{"OPT behind answer, authority and additional records", Message{
			Questions: []Question{{Name: name, Type: TypeA, Class: ClassIN}},
			Answers:   []RR{a, a}, Authority: []RR{a}, Additional: []RR{a, opt(700), opt(900)}}, 700},
		{"an OPT in the answer section is not the query's", Message{Answers: []RR{opt(4096)}}, 0},
	} {
		wire, err := tc.m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if size := AdvertisedUDPSize(wire); size != tc.size {
			t.Errorf("%s: %d, want %d", tc.name, size, tc.size)
		}
		wires[tc.name] = wire
	}
	for name, wire := range wires {
		for cut := 0; cut <= len(wire); cut++ {
			prefix := wire[:cut] // a read past it panics
			size := AdvertisedUDPSize(prefix)
			m, err := Unpack(prefix)
			if err != nil {
				continue
			}
			want := 0
			if o, ok := m.OPT(); ok {
				want = int(o.UDPSize)
			}
			if size != want {
				t.Errorf("%s cut at %d: AdvertisedUDPSize = %d, Unpack finds %d", name, cut, size, want)
			}
		}
	}
}

// servedCorpus reads testdata/served.hex: one hex-encoded response per
// line, captured from the canonical NSEC, NSEC3 and opt-out zones and
// the statewalk world by internal/integration's generator test
// (SERVED_WRITE_CORPUS=1 regenerates; '#' lines are comments).
func servedCorpus(t testing.TB) [][]byte {
	t.Helper()
	data, err := os.ReadFile("testdata/served.hex")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		wire, err := hex.DecodeString(line)
		if err != nil {
			t.Fatalf("served.hex: %v", err)
		}
		out = append(out, wire)
	}
	return out
}

func TestUnpackMatchesReference(t *testing.T) {
	t.Run("every RData type", func(t *testing.T) {
		seen := map[Type]bool{}
		for _, wire := range everyRDataMessages(t) {
			m, err := checkAgainstReference(t, wire)
			if err != nil {
				t.Fatalf("hand-built message rejected: %v", err)
			}
			for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
				for _, rr := range sec {
					seen[rr.Type()] = true
				}
			}
			if back := mustPack(t, m); len(back) == 0 {
				t.Fatal("re-pack produced nothing")
			}
		}
		for _, typ := range []Type{TypeA, TypeAAAA, TypeNS, TypeCNAME, TypePTR, TypeMX, TypeTXT, TypeSOA,
			TypeDNSKEY, TypeRRSIG, TypeDS, TypeNSEC, TypeNSEC3, TypeNSEC3PARAM, TypeOPT, Type(4242)} {
			if !seen[typ] {
				t.Errorf("no %s record was compared", typ)
			}
		}
	})
	t.Run("served corpus", func(t *testing.T) {
		corpus := servedCorpus(t)
		if len(corpus) < 400 {
			t.Fatalf("served.hex holds %d messages, want the full capture (>= 400)", len(corpus))
		}
		rcodes := map[RCode]int{}
		for _, wire := range corpus {
			m, err := checkAgainstReference(t, wire)
			if err != nil {
				t.Fatalf("served response rejected: %v\n wire %x", err, wire)
			}
			rcodes[m.Header.RCode]++
		}
		if rcodes[RCodeNoError] == 0 || rcodes[RCodeNXDomain] == 0 {
			t.Errorf("corpus RCODE mix %v lacks NOERROR or NXDOMAIN", rcodes)
		}
	})
	t.Run("hostile wire", func(t *testing.T) {
		accepted := map[string]bool{}
		for name, wire := range hostileMessages() {
			_, err := checkAgainstReference(t, wire)
			accepted[name] = err == nil
		}
		for name, want := range map[string]bool{
			"pointer chain 62 then 63":                true,
			"pointer chain 63 then 64":                true,
			"pointer chain 64 then 65":                false,
			"pointer chain 65 then 66":                false,
			"literal-headed pointer chain 62 then 63": true,
			"literal-headed pointer chain 63 then 64": true,
			"literal-headed pointer chain 64 then 65": false,
			"literal-headed pointer chain 65 then 66": false,
			"pointer into RDATA":                      true,
			"name overruns RDLENGTH":                  false,
			"pointer overruns RDLENGTH":               false,
			"hostile counts, 12 octets":               false,
			"hostile counts, 40 octets":               false,
			"hostile question count":                  false,
			"0x20 mixed case":                         true,
			"escaped labels":                          true,
			"zero-length fields":                      true,
			"EDE shorter than its code":               false,
			"bitmap all-zero bits":                    true,
			"bitmap out of order":                     false,
			"bitmap zero length":                      false,
			"bitmap long window":                      false,
			"bitmap truncated":                        false,
			"bitmap one octet":                        false,
			"trailing octet":                          false,
			"forward pointer":                         false,
			"self pointer":                            false,
			"reserved label type":                     false,
			"name too long":                           false,
			"truncated at 0":                          false,
			"truncated at 12":                         false,
		} {
			got, ok := accepted[name]
			if !ok {
				t.Errorf("no hostile case named %q", name)
			} else if got != want {
				t.Errorf("%s: accepted = %v, want %v", name, got, want)
			}
		}
		// The mixed-case spellings decode to one Name.
		m, err := Unpack(hostileMessages()["0x20 mixed case"])
		if err != nil {
			t.Fatal(err)
		}
		for i, rr := range m.Answers {
			if rr.Name != "mixed.example." {
				t.Errorf("answer %d owner %q, want mixed.example.", i, rr.Name)
			}
		}
	})
}

// FuzzUnpackDifferential holds Unpack to the reference on whatever the
// fuzzer finds.
func FuzzUnpackDifferential(f *testing.F) {
	for _, wire := range fuzzSeedMessages(f) {
		f.Add(wire)
	}
	for _, wire := range everyRDataMessages(f) {
		f.Add(wire)
	}
	for _, wire := range hostileMessages() {
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}

// checkPlainQuery is PlainQuery's differential property against Unpack:
// whatever the reader accepts Unpack accepts too, and the two agree on
// the ID, every header flag, the one question, whether an OPT is present
// and its DO bit — and the message has the plain shape and nothing more.
// What Unpack rejects the reader must not accept. It reports whether
// the reader accepted.
func checkPlainQuery(t testing.TB, wire []byte) bool {
	t.Helper()
	in := bytes.Clone(wire)
	h, q, edns, do, ok := PlainQuery(in)
	if !bytes.Equal(in, wire) {
		t.Fatalf("PlainQuery wrote to its input\n in  %x\n now %x", wire, in)
	}
	if !ok {
		return false
	}
	m, err := Unpack(wire)
	if err != nil {
		t.Fatalf("PlainQuery accepted what Unpack rejects (%v)\n wire %x", err, wire)
	}
	opt, has := m.OPT()
	switch {
	case h != m.Header:
		t.Fatalf("PlainQuery header %+v, Unpack %+v\n wire %x", h, m.Header, wire)
	case len(m.Questions) != 1 || q != m.Questions[0]:
		t.Fatalf("PlainQuery question %v, Unpack %v\n wire %x", q, m.Questions, wire)
	case edns != has || do != (has && opt.DO):
		t.Fatalf("PlainQuery edns=%v do=%v, Unpack's OPT %v (present %v)\n wire %x", edns, do, opt, has, wire)
	case len(m.Answers) != 0 || len(m.Authority) != 0 || len(m.Additional) > 1 ||
		(len(m.Additional) == 1 && (!has || m.Additional[0].Name != Root || len(opt.EDEs) != 0 || len(opt.Unknown) != 0)):
		t.Fatalf("PlainQuery accepted a message that is not of the plain shape: %v\n wire %x", m, wire)
	}
	return true
}

// plainQuerySeeds is every question of the served corpus asked the four
// ways NewQuery can ask it (the three with EDNS as rendered, the fourth
// with the OPT cut off), the served responses themselves and the hostile
// wire.
func plainQuerySeeds(t testing.TB) (queries, others [][]byte) {
	t.Helper()
	asked := map[Question]bool{}
	for _, wire := range servedCorpus(t) {
		others = append(others, wire)
		m, err := Unpack(wire)
		if err != nil || len(m.Questions) != 1 || asked[m.Questions[0]] {
			continue
		}
		q := m.Questions[0]
		asked[q] = true
		for i, do := range []bool{true, false} {
			query := NewQuery(uint16(len(queries)), q.Name, q.Type, do)
			query.Header.CheckingDisabled = i == 0
			queries = append(queries, mustPack(t, query))
		}
		bare := NewQuery(uint16(len(queries)), q.Name, q.Type, false)
		bare.Additional = nil
		queries = append(queries, mustPack(t, bare))
	}
	for _, wire := range hostileMessages() {
		others = append(others, wire)
	}
	return queries, others
}

// TestPlainQueryMatchesUnpack: every query NewQuery renders is read, a
// message of any other shape is left to Unpack, and on every prefix of
// both the reader agrees with Unpack or declines.
func TestPlainQueryMatchesUnpack(t *testing.T) {
	queries, others := plainQuerySeeds(t)
	if len(queries) < 300 {
		t.Fatalf("%d seed queries; the served corpus asks more questions than that", len(queries))
	}
	for _, wire := range queries {
		if !checkPlainQuery(t, wire) {
			t.Fatalf("a query NewQuery rendered was not read: %x", wire)
		}
	}
	name := MustParseName("www.example.com")
	opt := func(o OPT) RR { return o.AsRR() }
	a := RR{Name: name, Class: ClassIN, TTL: 1, Data: A{Addr: netip.MustParseAddr("192.0.2.1")}}
	question := []Question{{Name: name, Type: TypeA, Class: ClassIN}}
	for what, m := range map[string]*Message{
		"no question":           {Additional: []RR{opt(OPT{UDPSize: 1232})}},
		"two questions":         {Questions: append(question, question...)},
		"an answer record":      {Questions: question, Answers: []RR{a}},
		"an authority record":   {Questions: question, Authority: []RR{a}},
		"a non-OPT additional":  {Questions: question, Additional: []RR{a}},
		"two OPT records":       {Questions: question, Additional: []RR{opt(OPT{UDPSize: 512}), opt(OPT{UDPSize: 4096})}},
		"an OPT with an EDE":    {Questions: question, Additional: []RR{opt(OPT{UDPSize: 1232, EDEs: []EDE{{Code: EDEOther}}})}},
		"an OPT with an option": {Questions: question, Additional: []RR{opt(OPT{UDPSize: 1232, Unknown: []OptOption{{Code: 10, Data: []byte{1}}}})}},
	} {
		if wire := mustPack(t, m); checkPlainQuery(t, wire) {
			t.Errorf("%s: read as a plain query: %x", what, wire)
		}
	}
	// Accepted all the same, as Unpack and Handle take them: a response,
	// any opcode and RCODE, an EDNS version and extended RCODE.
	odd := NewQuery(7, name, TypeA, true)
	odd.Header = Header{ID: 7, Response: true, Opcode: 5, Authoritative: true, Truncated: true, RecursionAvailable: true, AuthenticatedData: true, RCode: RCodeRefused}
	odd.Additional[0].Data.(*OPT).Version = 1
	odd.Additional[0].Data.(*OPT).ExtRCodeHigh = 3
	if !checkPlainQuery(t, mustPack(t, odd)) {
		t.Error("a plain-shaped message with every header flag set was not read")
	}
	// A question spelled through a compression pointer, an OPT owned by a
	// pointer to a root octet, and a trailing octet are Unpack's.
	w := newWire(1, 0, 0, 0)
	w.labels("x").ptr(4).u16(uint16(TypeA)).u16(uint16(ClassIN)) // points at QDCOUNT's 0x00 0x01
	others = append(others, w.b)
	if checkPlainQuery(t, w.b) {
		t.Errorf("a question name ending in a pointer was read: %x", w.b)
	}
	w = newWire(1, 0, 0, 1)
	w.labels("x").raw(0).u16(uint16(TypeA)).u16(uint16(ClassIN))
	w.ptr(14).u16(uint16(TypeOPT)).u16(1232).u32(0x8000).u16(0)
	others = append(others, w.b)
	if _, err := Unpack(w.b); err != nil || checkPlainQuery(t, w.b) {
		t.Errorf("an OPT owned by a pointer to the root: Unpack %v; must decode and not be read plain: %x", err, w.b)
	}
	trailing := append(bytes.Clone(queries[0]), 0)
	if checkPlainQuery(t, trailing) {
		t.Errorf("a query with an octet after it was read: %x", trailing)
	}
	for _, wire := range append(others, queries[:12]...) {
		for cut := 0; cut <= len(wire); cut++ {
			checkPlainQuery(t, wire[:cut:cut]) // a read past it panics
		}
	}
}

// FuzzPlainQueryDifferential holds PlainQuery to Unpack on whatever the
// fuzzer finds.
func FuzzPlainQueryDifferential(f *testing.F) {
	queries, others := plainQuerySeeds(f)
	for _, wire := range append(queries, others...) {
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlainQuery(t, data)
	})
}

// nxdomainResponse is a signed NSEC3 NXDOMAIN response of the shape the
// authoritative server sends: SOA + RRSIG and three NSEC3 + RRSIG in
// the authority section, OPT with DO in the additional section.
func nxdomainResponse() *Message {
	apex := MustParseName("example.com")
	qname := apex.MustChild("www").MustChild("gone")
	sig := func(owner Name, covered Type, fill byte) RR {
		return RR{Name: owner, Class: ClassIN, TTL: 300, Data: RRSIG{
			TypeCovered: covered, Algorithm: AlgECDSAP256SHA256, Labels: uint8(owner.CountLabels()),
			OrigTTL: 300, Expiration: 1717200000, Inception: 1709251200, KeyTag: 4711,
			SignerName: apex, Signature: bytes.Repeat([]byte{fill}, 64),
		}}
	}
	m := &Message{
		Header:    Header{ID: 0xBEEF, Response: true, Authoritative: true, RCode: RCodeNXDomain},
		Questions: []Question{{Name: qname, Type: TypeA, Class: ClassIN}},
		Authority: []RR{
			{Name: apex, Class: ClassIN, TTL: 300, Data: SOA{
				MName: apex.MustChild("ns1"), RName: apex.MustChild("hostmaster"),
				Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}},
			sig(apex, TypeSOA, 0xA0),
		},
		Additional: []RR{(&OPT{UDPSize: 1232, DO: true}).AsRR()},
	}
	for i, h := range []string{
		"0p9mhaveqvm6t7vbl5lop2u3t2rp3tom", "b4um86eghhds6nea196smvmlo4ors995", "q04jkcevqvmu85r014c7dkba38o0ji5r",
	} {
		owner := apex.MustChild(h)
		m.Authority = append(m.Authority,
			RR{Name: owner, Class: ClassIN, TTL: 300, Data: NSEC3{
				HashAlg: NSEC3HashSHA1, NextHashedOwner: bytes.Repeat([]byte{byte(0x30 + i)}, 20),
				Types: NewTypeBitmap(TypeA, TypeRRSIG)}},
			sig(owner, TypeNSEC3, byte(0xB0+i)))
	}
	return m
}

// TestUnpackFieldsAreIsolated appends to and scribbles over every byte
// field and every section of a decoded NXDOMAIN response, one at a
// time, and requires everything else to still pack to the original
// octets: no field may share writable memory with its neighbour,
// whatever Unpack shares underneath.
func TestUnpackFieldsAreIsolated(t *testing.T) {
	m := nxdomainResponse()
	m.Authority = append(m.Authority, RR{Name: MustParseName("example.com"), Class: ClassIN, TTL: 0,
		Data: NSEC3PARAM{HashAlg: NSEC3HashSHA1, Salt: []byte{0xDE, 0xAD}}})
	m.Additional[0].Data.(*OPT).Unknown = []OptOption{{Code: 10, Data: []byte{1, 2, 3, 4}}, {Code: 11, Data: []byte{5, 6}}}
	wire := mustPack(t, m)
	decode := func() *Message {
		t.Helper()
		out, err := Unpack(wire)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// A mutation damages one field or section of victim; restore puts
	// that one place back from a second, untouched decode.
	type mutation struct {
		name    string
		do      func(victim *Message, scribble bool)
		restore func(victim, fresh *Message)
	}
	damage := func(b []byte, scribble bool) []byte {
		if !scribble {
			return append(b, 0xEE, 0xEE, 0xEE, 0xEE)
		}
		for i := range b {
			b[i] ^= 0xFF
		}
		return b
	}
	var muts []mutation
	shape := decode()
	for s, sec := range [][]RR{shape.Answers, shape.Authority, shape.Additional} {
		for i := range sec {
			at := func(m *Message) *RR { return &[][]RR{m.Answers, m.Authority, m.Additional}[s][i] }
			// Byte fields sit inside interface-boxed struct values, so a
			// mutator writes through the field's backing array (or
			// appends to it) and re-boxes the struct.
			field := func(name string, do func(rr *RR, scribble bool)) {
				muts = append(muts, mutation{
					name:    fmt.Sprintf("section %d record %d %s", s, i, name),
					do:      func(victim *Message, scribble bool) { do(at(victim), scribble) },
					restore: func(victim, fresh *Message) { *at(victim) = *at(fresh) },
				})
			}
			switch rd := sec[i].Data.(type) {
			case RRSIG:
				field("Signature", func(rr *RR, sc bool) {
					rd := rr.Data.(RRSIG)
					rd.Signature = damage(rd.Signature, sc)
					rr.Data = rd
				})
			case NSEC3:
				field("Salt", func(rr *RR, sc bool) {
					rd := rr.Data.(NSEC3)
					rd.Salt = damage(rd.Salt, sc)
					rr.Data = rd
				})
				field("NextHashedOwner", func(rr *RR, sc bool) {
					rd := rr.Data.(NSEC3)
					rd.NextHashedOwner = damage(rd.NextHashedOwner, sc)
					rr.Data = rd
				})
				field("Types", func(rr *RR, sc bool) {
					rd := rr.Data.(NSEC3)
					if sc {
						for j := range rd.Types {
							rd.Types[j] = TypeANY
						}
					} else {
						rd.Types = append(rd.Types, TypeANY)
					}
					rr.Data = rd
				})
			case NSEC3PARAM:
				field("Salt", func(rr *RR, sc bool) {
					rd := rr.Data.(NSEC3PARAM)
					rd.Salt = damage(rd.Salt, sc)
					rr.Data = rd
				})
			case *OPT:
				for u := range rd.Unknown {
					field(fmt.Sprintf("option %d", u), func(rr *RR, sc bool) {
						o := rr.Data.(*OPT)
						o.Unknown[u].Data = damage(o.Unknown[u].Data, sc)
					})
				}
			}
		}
	}
	for s := 0; s < 3; s++ {
		sec := func(m *Message) *[]RR { return []*[]RR{&m.Answers, &m.Authority, &m.Additional}[s] }
		muts = append(muts, mutation{
			name: fmt.Sprintf("section %d", s),
			do: func(victim *Message, scribble bool) {
				alien := RR{Name: "alien.", Class: ClassANY, Data: A{Addr: netip.MustParseAddr("203.0.113.9")}}
				if !scribble {
					*sec(victim) = append(*sec(victim), alien)
					return
				}
				for i := range *sec(victim) {
					(*sec(victim))[i] = alien
				}
			},
			restore: func(victim, fresh *Message) { *sec(victim) = *sec(fresh) },
		})
	}
	muts = append(muts, mutation{
		name: "questions",
		do: func(victim *Message, scribble bool) {
			alien := Question{Name: "alien.", Type: TypeANY, Class: ClassANY}
			if scribble {
				victim.Questions[0] = alien
			} else {
				victim.Questions = append(victim.Questions, alien)
			}
		},
		restore: func(victim, fresh *Message) { victim.Questions = fresh.Questions },
	})
	// 4 signatures, 3 × (salt, next hash, bitmap), 1 NSEC3PARAM salt,
	// 2 options, 3 sections, the questions.
	if want := 4 + 3*3 + 1 + 2 + 3 + 1; len(muts) != want {
		t.Fatalf("%d mutations derived from the decoded message, want %d", len(muts), want)
	}
	for _, mu := range muts {
		for _, scribble := range []bool{false, true} {
			victim := decode()
			mu.do(victim, scribble)
			mu.restore(victim, decode())
			back, err := victim.Pack()
			if err != nil {
				t.Fatalf("%s (scribble=%v): re-pack: %v", mu.name, scribble, err)
			}
			if !bytes.Equal(back, wire) {
				t.Errorf("%s (scribble=%v) reached beyond its own field:\n got  %x\n want %x", mu.name, scribble, back, wire)
			}
		}
	}
}

// TestUnpackHostileCountsBounded pins that header counts alone cost
// nothing: a 12-octet message claiming 4 × 65,535 entries is rejected
// having allocated under 1 KB.
func TestUnpackHostileCountsBounded(t *testing.T) {
	wire := hostileMessages()["hostile counts, 12 octets"]
	if _, err := Unpack(wire); err == nil {
		t.Fatal("12-octet message with 65,535-entry counts accepted")
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, _ = Unpack(wire)
	})
	if allocs > 8 {
		t.Errorf("rejecting the hostile header takes %.0f allocations", allocs)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = Unpack(wire)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Errorf("rejecting the hostile header allocates %d bytes, want < 1 KB", per)
	}
}
