package dnswire

import (
	"encoding/base32"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/netip"
	"strings"
)

// RData is the type-specific payload of a resource record.
//
// Implementations encode themselves with appendRData; encoding with a
// nil compression table produces the canonical form of RFC 4034 §6.2
// (names in this package are always lowercase, and DNSSEC-era types are
// never compressed).
type RData interface {
	// Type returns the RR type this payload belongs to.
	Type() Type
	// String returns the RDATA in master-file presentation format.
	String() string
	// appendRData appends the wire form to e.buf.
	appendRData(e *encoder)
}

// AppendRData appends the canonical (uncompressed, lowercase) wire
// encoding of rd to dst. This is the form hashed and signed by DNSSEC.
func AppendRData(dst []byte, rd RData) []byte {
	// The encoder escapes through the RData interface, so it is borrowed
	// from the message encoders' pool rather than allocated per call;
	// one fresh from the pool does not compress. It renders into a
	// scratch of its own, kept with it in the pool, and the octets are
	// copied to dst: dst is never stored where the pool can reach it, so
	// a caller's buffer may live on the caller's stack.
	e := encPool.Get().(*encoder)
	e.buf = e.scratch[:0]
	rd.appendRData(e)
	dst = append(dst, e.buf...)
	e.scratch = e.buf
	releaseEncoder(e)
	return dst
}

// base32Hex is the unpadded Base32 "extended hex" alphabet used by
// NSEC3 owner names and next-hashed-owner fields (RFC 5155 §1.3).
var base32Hex = base32.HexEncoding.WithPadding(base32.NoPadding)

// ---------------------------------------------------------------- A

// A is an IPv4 address record (RFC 1035 §3.4.1).
type A struct{ Addr netip.Addr }

// Type implements RData.
func (A) Type() Type { return TypeA }

// String implements RData.
func (r A) String() string { return r.Addr.String() }

func (r A) appendRData(e *encoder) {
	a4 := r.Addr.As4()
	e.buf = append(e.buf, a4[:]...)
}

// ------------------------------------------------------------- AAAA

// AAAA is an IPv6 address record (RFC 3596).
type AAAA struct{ Addr netip.Addr }

// Type implements RData.
func (AAAA) Type() Type { return TypeAAAA }

// String implements RData.
func (r AAAA) String() string { return r.Addr.String() }

func (r AAAA) appendRData(e *encoder) {
	a16 := r.Addr.As16()
	e.buf = append(e.buf, a16[:]...)
}

// --------------------------------------------------------------- NS

// NS delegates a zone to a name server (RFC 1035 §3.3.11).
type NS struct{ Host Name }

// Type implements RData.
func (NS) Type() Type { return TypeNS }

// String implements RData.
func (r NS) String() string { return r.Host.String() }

func (r NS) appendRData(e *encoder) { e.name(r.Host, true) }

// ------------------------------------------------------------ CNAME

// CNAME is a canonical-name alias (RFC 1035 §3.3.1).
type CNAME struct{ Target Name }

// Type implements RData.
func (CNAME) Type() Type { return TypeCNAME }

// String implements RData.
func (r CNAME) String() string { return r.Target.String() }

func (r CNAME) appendRData(e *encoder) { e.name(r.Target, true) }

// -------------------------------------------------------------- PTR

// PTR is a pointer record (RFC 1035 §3.3.12).
type PTR struct{ Target Name }

// Type implements RData.
func (PTR) Type() Type { return TypePTR }

// String implements RData.
func (r PTR) String() string { return r.Target.String() }

func (r PTR) appendRData(e *encoder) { e.name(r.Target, true) }

// --------------------------------------------------------------- MX

// MX is a mail exchanger record (RFC 1035 §3.3.9).
type MX struct {
	Preference uint16
	Host       Name
}

// Type implements RData.
func (MX) Type() Type { return TypeMX }

// String implements RData.
func (r MX) String() string { return fmt.Sprintf("%d %s", r.Preference, r.Host) }

func (r MX) appendRData(e *encoder) {
	e.u16(r.Preference)
	e.name(r.Host, true)
}

// -------------------------------------------------------------- TXT

// TXT carries one or more character strings (RFC 1035 §3.3.14).
type TXT struct{ Strings []string }

// Type implements RData.
func (TXT) Type() Type { return TypeTXT }

// String implements RData.
func (r TXT) String() string {
	parts := make([]string, len(r.Strings))
	for i, s := range r.Strings {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(parts, " ")
}

func (r TXT) appendRData(e *encoder) {
	for _, s := range r.Strings {
		if len(s) > 255 {
			s = s[:255]
		}
		e.buf = append(e.buf, byte(len(s)))
		e.buf = append(e.buf, s...)
	}
}

// -------------------------------------------------------------- SOA

// SOA marks the start of a zone of authority (RFC 1035 §3.3.13).
type SOA struct {
	MName   Name // primary name server
	RName   Name // responsible mailbox
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32 // also the negative-caching TTL (RFC 2308)
}

// Type implements RData.
func (SOA) Type() Type { return TypeSOA }

// String implements RData.
func (r SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		r.MName, r.RName, r.Serial, r.Refresh, r.Retry, r.Expire, r.Minimum)
}

func (r SOA) appendRData(e *encoder) {
	e.name(r.MName, true)
	e.name(r.RName, true)
	e.u32(r.Serial)
	e.u32(r.Refresh)
	e.u32(r.Retry)
	e.u32(r.Expire)
	e.u32(r.Minimum)
}

// ------------------------------------------------------------ DNSKEY

// DNSKEY holds a zone's public key (RFC 4034 §2).
type DNSKEY struct {
	Flags     uint16
	Protocol  uint8 // always 3
	Algorithm SecAlgorithm
	PublicKey []byte
}

// Type implements RData.
func (DNSKEY) Type() Type { return TypeDNSKEY }

// String implements RData.
func (r DNSKEY) String() string {
	return fmt.Sprintf("%d %d %d %s",
		r.Flags, r.Protocol, uint8(r.Algorithm),
		base64.StdEncoding.EncodeToString(r.PublicKey))
}

// IsZoneKey reports whether the ZONE flag bit is set.
func (r DNSKEY) IsZoneKey() bool { return r.Flags&DNSKEYFlagZone != 0 }

func (r DNSKEY) appendRData(e *encoder) {
	e.u16(r.Flags)
	e.buf = append(e.buf, r.Protocol, byte(r.Algorithm))
	e.buf = append(e.buf, r.PublicKey...)
}

// ------------------------------------------------------------- RRSIG

// RRSIG is a DNSSEC signature over an RRset (RFC 4034 §3).
type RRSIG struct {
	TypeCovered Type
	Algorithm   SecAlgorithm
	Labels      uint8
	OrigTTL     uint32
	Expiration  uint32 // seconds since epoch, serial-number arithmetic
	Inception   uint32
	KeyTag      uint16
	SignerName  Name
	Signature   []byte
}

// Type implements RData.
func (RRSIG) Type() Type { return TypeRRSIG }

// String implements RData.
func (r RRSIG) String() string {
	return fmt.Sprintf("%s %d %d %d %d %d %d %s %s",
		r.TypeCovered, uint8(r.Algorithm), r.Labels, r.OrigTTL,
		r.Expiration, r.Inception, r.KeyTag, r.SignerName,
		base64.StdEncoding.EncodeToString(r.Signature))
}

func (r RRSIG) appendRData(e *encoder) {
	e.buf = r.AppendSignedPart(e.buf)
	e.buf = append(e.buf, r.Signature...)
}

// AppendSignedPart appends the RRSIG RDATA with the Signature field
// omitted — the prefix covered by the signature (RFC 4034 §3.1.8.1).
// No encoder is involved, so dst may live on the caller's stack.
func (r RRSIG) AppendSignedPart(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(r.TypeCovered))
	dst = append(dst, byte(r.Algorithm), r.Labels)
	dst = binary.BigEndian.AppendUint32(dst, r.OrigTTL)
	dst = binary.BigEndian.AppendUint32(dst, r.Expiration)
	dst = binary.BigEndian.AppendUint32(dst, r.Inception)
	dst = binary.BigEndian.AppendUint16(dst, r.KeyTag)
	return appendName(dst, r.SignerName) // never compressed (RFC 4034 §3.1.7)
}

// ---------------------------------------------------------------- DS

// DS is a delegation signer record published in the parent zone
// (RFC 4034 §5).
type DS struct {
	KeyTag     uint16
	Algorithm  SecAlgorithm
	DigestType DigestType
	Digest     []byte
}

// Type implements RData.
func (DS) Type() Type { return TypeDS }

// String implements RData.
func (r DS) String() string {
	return fmt.Sprintf("%d %d %d %s",
		r.KeyTag, uint8(r.Algorithm), uint8(r.DigestType),
		strings.ToUpper(hex.EncodeToString(r.Digest)))
}

func (r DS) appendRData(e *encoder) {
	e.u16(r.KeyTag)
	e.buf = append(e.buf, byte(r.Algorithm), byte(r.DigestType))
	e.buf = append(e.buf, r.Digest...)
}

// -------------------------------------------------------------- NSEC

// NSEC proves the non-existence of names and types between its owner
// and NextName in canonical order (RFC 4034 §4).
type NSEC struct {
	NextName Name
	Types    TypeBitmap
}

// Type implements RData.
func (NSEC) Type() Type { return TypeNSEC }

// String implements RData.
func (r NSEC) String() string { return fmt.Sprintf("%s %s", r.NextName, r.Types) }

func (r NSEC) appendRData(e *encoder) {
	e.name(r.NextName, false) // never compressed (RFC 4034 §4.1.1)
	e.buf = appendBitmap(e.buf, r.Types)
}

// ------------------------------------------------------------- NSEC3

// NSEC3 proves non-existence through hashed owner names (RFC 5155 §3).
// The owner name of an NSEC3 RR is the Base32hex hash of an original
// name prepended to the zone name; NextHashedOwner is the raw hash of
// the next name in hash order.
type NSEC3 struct {
	HashAlg         NSEC3HashAlg
	Flags           uint8
	Iterations      uint16
	Salt            []byte
	NextHashedOwner []byte
	Types           TypeBitmap
}

// Type implements RData.
func (NSEC3) Type() Type { return TypeNSEC3 }

// OptOut reports whether the Opt-Out flag is set (RFC 5155 §3.1.2.1).
func (r NSEC3) OptOut() bool { return r.Flags&NSEC3FlagOptOut != 0 }

// SaltString renders the salt as hex, or "-" when empty (RFC 5155 §3.3).
func (r NSEC3) SaltString() string { return saltString(r.Salt) }

// NextString renders the next hashed owner in Base32hex.
func (r NSEC3) NextString() string {
	return strings.ToUpper(base32Hex.EncodeToString(r.NextHashedOwner))
}

// String implements RData.
func (r NSEC3) String() string {
	return fmt.Sprintf("%d %d %d %s %s %s",
		uint8(r.HashAlg), r.Flags, r.Iterations, r.SaltString(),
		r.NextString(), r.Types)
}

func (r NSEC3) appendRData(e *encoder) {
	e.buf = append(e.buf, byte(r.HashAlg), r.Flags)
	e.u16(r.Iterations)
	e.buf = append(e.buf, byte(len(r.Salt)))
	e.buf = append(e.buf, r.Salt...)
	e.buf = append(e.buf, byte(len(r.NextHashedOwner)))
	e.buf = append(e.buf, r.NextHashedOwner...)
	e.buf = appendBitmap(e.buf, r.Types)
}

// --------------------------------------------------------- NSEC3PARAM

// NSEC3PARAM publishes the NSEC3 parameters a zone's chain was built
// with (RFC 5155 §4). Flags are always zero in this record.
type NSEC3PARAM struct {
	HashAlg    NSEC3HashAlg
	Flags      uint8
	Iterations uint16
	Salt       []byte
}

// Type implements RData.
func (NSEC3PARAM) Type() Type { return TypeNSEC3PARAM }

// SaltString renders the salt as hex, or "-" when empty.
func (r NSEC3PARAM) SaltString() string { return saltString(r.Salt) }

// String implements RData.
func (r NSEC3PARAM) String() string {
	return fmt.Sprintf("%d %d %d %s",
		uint8(r.HashAlg), r.Flags, r.Iterations, r.SaltString())
}

func (r NSEC3PARAM) appendRData(e *encoder) {
	e.buf = append(e.buf, byte(r.HashAlg), r.Flags)
	e.u16(r.Iterations)
	e.buf = append(e.buf, byte(len(r.Salt)))
	e.buf = append(e.buf, r.Salt...)
}

func saltString(salt []byte) string {
	if len(salt) == 0 {
		return "-"
	}
	return strings.ToUpper(hex.EncodeToString(salt))
}

// ------------------------------------------------------------ Generic

// Generic is an RDATA of a type this package has no structured codec
// for, kept as opaque octets (RFC 3597).
type Generic struct {
	T    Type
	Data []byte
}

// Type implements RData.
func (r Generic) Type() Type { return r.T }

// String implements RData in the RFC 3597 \# form.
func (r Generic) String() string {
	return fmt.Sprintf("\\# %d %s", len(r.Data), hex.EncodeToString(r.Data))
}

func (r Generic) appendRData(e *encoder) { e.buf = append(e.buf, r.Data...) }

// parseRData decodes the RDATA of type t occupying the next rdlen
// octets, with d's bound narrowed to them for the duration: no field
// may read past its RDATA, while compressed names inside it (legal
// only for the classic types) still resolve against the whole message.
func parseRData(t Type, d *decoder, rdlen int) (RData, error) {
	end := d.off + rdlen
	if end > d.end {
		return nil, fmt.Errorf("dnswire: RDATA overruns message")
	}
	msgEnd := d.end
	d.end = end
	var rd RData
	var err error
	switch t {
	case TypeA:
		var raw []byte
		if raw, err = d.view(4); err == nil {
			rd = A{Addr: netip.AddrFrom4([4]byte(raw))}
		}
	case TypeAAAA:
		var raw []byte
		if raw, err = d.view(16); err == nil {
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
			var s string
			if s, err = d.charString(); err != nil {
				break
			}
			r.Strings = append(r.Strings, s)
		}
		if err == nil {
			rd = r
		}
	case TypeSOA:
		rd, err = parseSOA(d)
	case TypeDNSKEY:
		rd, err = parseDNSKEY(d)
	case TypeRRSIG:
		rd, err = parseRRSIG(d)
	case TypeDS:
		rd, err = parseDS(d)
	case TypeNSEC:
		rd, err = parseNSEC(d)
	case TypeNSEC3:
		rd, err = parseNSEC3(d)
	case TypeNSEC3PARAM:
		rd, err = parseNSEC3PARAM(d)
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
	d.end = msgEnd
	return rd, nil
}

func parseSOA(d *decoder) (RData, error) {
	var r SOA
	var err error
	if r.MName, err = d.name(); err != nil {
		return nil, err
	}
	if r.RName, err = d.name(); err != nil {
		return nil, err
	}
	for _, p := range []*uint32{&r.Serial, &r.Refresh, &r.Retry, &r.Expire, &r.Minimum} {
		if *p, err = d.u32(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func parseDNSKEY(d *decoder) (RData, error) {
	var r DNSKEY
	var err error
	if r.Flags, err = d.u16(); err != nil {
		return nil, err
	}
	if r.Protocol, err = d.u8(); err != nil {
		return nil, err
	}
	alg, err := d.u8()
	if err != nil {
		return nil, err
	}
	r.Algorithm = SecAlgorithm(alg)
	r.PublicKey, err = d.bytes(d.end - d.off)
	return r, err
}

func parseRRSIG(d *decoder) (RData, error) {
	var r RRSIG
	tc, err := d.u16()
	if err != nil {
		return nil, err
	}
	r.TypeCovered = Type(tc)
	alg, err := d.u8()
	if err != nil {
		return nil, err
	}
	r.Algorithm = SecAlgorithm(alg)
	if r.Labels, err = d.u8(); err != nil {
		return nil, err
	}
	if r.OrigTTL, err = d.u32(); err != nil {
		return nil, err
	}
	if r.Expiration, err = d.u32(); err != nil {
		return nil, err
	}
	if r.Inception, err = d.u32(); err != nil {
		return nil, err
	}
	if r.KeyTag, err = d.u16(); err != nil {
		return nil, err
	}
	if r.SignerName, err = d.name(); err != nil {
		return nil, err
	}
	r.Signature, err = d.bytes(d.end - d.off)
	return r, err
}

func parseDS(d *decoder) (RData, error) {
	var r DS
	var err error
	if r.KeyTag, err = d.u16(); err != nil {
		return nil, err
	}
	alg, err := d.u8()
	if err != nil {
		return nil, err
	}
	r.Algorithm = SecAlgorithm(alg)
	dt, err := d.u8()
	if err != nil {
		return nil, err
	}
	r.DigestType = DigestType(dt)
	r.Digest, err = d.bytes(d.end - d.off)
	return r, err
}

func parseNSEC(d *decoder) (RData, error) {
	var r NSEC
	var err error
	if r.NextName, err = d.name(); err != nil {
		return nil, err
	}
	r.Types, err = d.bitmap()
	return r, err
}

func parseNSEC3(d *decoder) (RData, error) {
	var r NSEC3
	alg, err := d.u8()
	if err != nil {
		return nil, err
	}
	r.HashAlg = NSEC3HashAlg(alg)
	if r.Flags, err = d.u8(); err != nil {
		return nil, err
	}
	if r.Iterations, err = d.u16(); err != nil {
		return nil, err
	}
	if r.Salt, err = d.lenPrefixed(); err != nil {
		return nil, err
	}
	if r.NextHashedOwner, err = d.lenPrefixed(); err != nil {
		return nil, err
	}
	r.Types, err = d.bitmap()
	return r, err
}

func parseNSEC3PARAM(d *decoder) (RData, error) {
	var r NSEC3PARAM
	alg, err := d.u8()
	if err != nil {
		return nil, err
	}
	r.HashAlg = NSEC3HashAlg(alg)
	if r.Flags, err = d.u8(); err != nil {
		return nil, err
	}
	if r.Iterations, err = d.u16(); err != nil {
		return nil, err
	}
	r.Salt, err = d.lenPrefixed()
	return r, err
}
