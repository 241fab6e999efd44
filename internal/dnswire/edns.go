package dnswire

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// DefaultUDPSize is the EDNS(0) UDP payload size this stack advertises.
const DefaultUDPSize = 1232

// EDECode is an Extended DNS Error INFO-CODE (RFC 8914 §5.2).
type EDECode uint16

// Extended DNS Error codes relevant to the NSEC3 study.
const (
	EDEOther                EDECode = 0
	EDEDNSSECIndeterminate  EDECode = 5 // returned by Google Public DNS for high iterations
	EDEDNSSECBogus          EDECode = 6
	EDESignatureExpired     EDECode = 7
	EDENSECMissing          EDECode = 12 // returned by Cisco OpenDNS for high iterations
	EDEUnsupportedNSEC3Iter EDECode = 27 // "Unsupported NSEC3 iterations value" (RFC 9276 Items 10–11)
)

// String returns the code mnemonic.
func (c EDECode) String() string {
	switch c {
	case EDEOther:
		return "Other"
	case EDEDNSSECIndeterminate:
		return "DNSSEC Indeterminate"
	case EDEDNSSECBogus:
		return "DNSSEC Bogus"
	case EDESignatureExpired:
		return "Signature Expired"
	case EDENSECMissing:
		return "NSEC Missing"
	case EDEUnsupportedNSEC3Iter:
		return "Unsupported NSEC3 Iterations Value"
	}
	return fmt.Sprintf("EDE%d", uint16(c))
}

// EDE is one Extended DNS Error option (RFC 8914).
type EDE struct {
	Code EDECode
	Text string // EXTRA-TEXT, optional human-readable detail
}

// String renders the option as RFC 8914 suggests in comments.
func (e EDE) String() string {
	if e.Text == "" {
		return fmt.Sprintf("EDE: %d (%s)", uint16(e.Code), e.Code)
	}
	return fmt.Sprintf("EDE: %d (%s): %q", uint16(e.Code), e.Code, e.Text)
}

// EDNS option codes.
const (
	optCodeEDE = 15 // RFC 8914
)

// OPT is the EDNS(0) pseudo-RR (RFC 6891). On the wire its class field
// carries the requester's UDP payload size and its TTL carries the
// extended RCODE high bits, version, and the DO flag.
type OPT struct {
	UDPSize      uint16
	ExtRCodeHigh uint8
	Version      uint8
	DO           bool   // DNSSEC OK (RFC 3225)
	Z            uint16 // the fifteen flag bits after DO: zero as sent (RFC 6891 §6.1.4), kept as received
	EDEs         []EDE
	Unknown      []OptOption // options this package has no codec for
}

// OptOption is an opaque EDNS option.
type OptOption struct {
	Code uint16
	Data []byte
}

// Type implements RData.
func (*OPT) Type() Type { return TypeOPT }

// String implements RData.
func (o *OPT) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPT: udp=%d version=%d", o.UDPSize, o.Version)
	if o.DO {
		b.WriteString(" do")
	}
	for _, e := range o.EDEs {
		b.WriteString("; ")
		b.WriteString(e.String())
	}
	return b.String()
}

func (o *OPT) appendRData(e *encoder) {
	for _, ede := range o.EDEs {
		e.u16(optCodeEDE)
		e.u16(uint16(2 + len(ede.Text)))
		e.u16(uint16(ede.Code))
		e.buf = append(e.buf, ede.Text...)
	}
	for _, u := range o.Unknown {
		e.u16(u.Code)
		e.u16(uint16(len(u.Data)))
		e.buf = append(e.buf, u.Data...)
	}
}

// ttl packs the OPT TTL field.
func (o *OPT) ttl() uint32 {
	t := uint32(o.ExtRCodeHigh)<<24 | uint32(o.Version)<<16 | uint32(o.Z&0x7FFF)
	if o.DO {
		t |= 1 << 15
	}
	return t
}

// AsRR wraps the OPT into a pseudo resource record ready to append to
// the additional section.
func (o *OPT) AsRR() RR {
	return RR{Name: Root, Class: Class(o.UDPSize), TTL: o.ttl(), Data: o}
}

// parseOPT decodes an OPT pseudo-RR given the already-read class and
// TTL, into the block's OPT for the message's first one. As in
// parseRData, d's bound is narrowed to the RDATA while its options are
// read: an option may neither end past RDLENGTH nor take octets of the
// record after it.
func parseOPT(d *decoder, class Class, ttl uint32, rdlen int) (*OPT, error) {
	o := d.opt
	d.opt = nil
	if o == nil {
		o = new(OPT)
	}
	o.UDPSize = uint16(class)
	o.ExtRCodeHigh = uint8(ttl >> 24)
	o.Version = uint8(ttl >> 16)
	o.DO = ttl&(1<<15) != 0
	o.Z = uint16(ttl) & 0x7FFF
	end := d.off + rdlen
	if end > d.end {
		return nil, fmt.Errorf("dnswire: OPT RDATA overruns message")
	}
	msgEnd := d.end
	d.end = end
	for d.off < end {
		code, err := d.u16()
		if err != nil {
			return nil, err
		}
		olen, err := d.u16()
		if err != nil {
			return nil, err
		}
		switch code {
		case optCodeEDE:
			data, err := d.view(int(olen))
			if err != nil {
				return nil, err
			}
			if len(data) < 2 {
				return nil, fmt.Errorf("dnswire: EDE option shorter than 2 octets")
			}
			o.EDEs = append(o.EDEs, EDE{
				Code: EDECode(binary.BigEndian.Uint16(data)),
				Text: string(data[2:]),
			})
		default:
			data, err := d.bytes(int(olen))
			if err != nil {
				return nil, err
			}
			o.Unknown = append(o.Unknown, OptOption{Code: code, Data: data})
		}
	}
	d.end = msgEnd
	return o, nil
}

// NewQuery builds a standard recursive query for (name, type) with
// EDNS(0) and the DO bit set when dnssec is true. The message, its
// question, its additional section and the OPT live in one allocation;
// each section is a full slice, so appending to one copies it out.
func NewQuery(id uint16, name Name, t Type, dnssec bool) *Message {
	q := &struct {
		msg        Message
		question   [1]Question
		additional [1]RR
		opt        OPT
	}{}
	q.question[0] = Question{Name: name, Type: t, Class: ClassIN}
	q.opt = OPT{UDPSize: DefaultUDPSize, DO: dnssec}
	q.additional[0] = q.opt.AsRR()
	q.msg = Message{
		Header: Header{
			ID:               id,
			Opcode:           OpcodeQuery,
			RecursionDesired: true,
		},
		Questions:  q.question[:],
		Additional: q.additional[:],
	}
	return &q.msg
}
