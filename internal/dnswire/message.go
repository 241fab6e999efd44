package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Header flag bits within the third/fourth header octets, as a uint16.
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
	flagAD = 1 << 5
	flagCD = 1 << 4
)

// Header is the fixed 12-octet DNS message header (RFC 1035 §4.1.1)
// with the DNSSEC AD/CD bits (RFC 4035 §3.1.6, §3.2.2).
type Header struct {
	ID                 uint16
	Response           bool // QR
	Opcode             Opcode
	Authoritative      bool  // AA
	Truncated          bool  // TC
	RecursionDesired   bool  // RD
	RecursionAvailable bool  // RA
	AuthenticatedData  bool  // AD
	CheckingDisabled   bool  // CD
	RCode              RCode // low 4 bits; extended bits live in OPT
}

func (h Header) flags() uint16 {
	var f uint16
	if h.Response {
		f |= flagQR
	}
	f |= uint16(h.Opcode&OpcodeMask) << 11
	if h.Authoritative {
		f |= flagAA
	}
	if h.Truncated {
		f |= flagTC
	}
	if h.RecursionDesired {
		f |= flagRD
	}
	if h.RecursionAvailable {
		f |= flagRA
	}
	if h.AuthenticatedData {
		f |= flagAD
	}
	if h.CheckingDisabled {
		f |= flagCD
	}
	f |= uint16(h.RCode & RCodeMask)
	return f
}

func headerFromFlags(f uint16) Header {
	return Header{
		Response:           f&flagQR != 0,
		Opcode:             Opcode(f>>11) & OpcodeMask,
		Authoritative:      f&flagAA != 0,
		Truncated:          f&flagTC != 0,
		RecursionDesired:   f&flagRD != 0,
		RecursionAvailable: f&flagRA != 0,
		AuthenticatedData:  f&flagAD != 0,
		CheckingDisabled:   f&flagCD != 0,
		RCode:              RCode(f) & RCodeMask,
	}
}

// Question is a query tuple (RFC 1035 §4.1.2).
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String renders the question in dig-like form.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// RR is a resource record: owner name, class, TTL and typed payload.
// The Type lives on the payload (RR.Type() delegates to Data).
type RR struct {
	Name  Name
	Class Class
	TTL   uint32
	Data  RData
}

// Type returns the record type from the payload.
func (r RR) Type() Type { return r.Data.Type() }

// String renders the record in master-file form.
func (r RR) String() string {
	return fmt.Sprintf("%s %d %s %s %s", r.Name, r.TTL, r.Class, r.Type(), r.Data)
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR // includes the OPT pseudo-RR, if any
}

// Question returns the first question, or a zero Question if none.
func (m *Message) Question() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// OPT returns the OPT pseudo-RR from the additional section, if present.
func (m *Message) OPT() (*OPT, bool) {
	for i := range m.Additional {
		if o, ok := m.Additional[i].Data.(*OPT); ok {
			return o, true
		}
	}
	return nil, false
}

// ExtendedRCode combines the 4-bit header RCODE with the high bits from
// the OPT TTL field (RFC 6891 §6.1.3).
func (m *Message) ExtendedRCode() RCode {
	rc := m.Header.RCode
	if o, ok := m.OPT(); ok {
		rc |= RCode(o.ExtRCodeHigh) << 4
	}
	return rc
}

// errTruncate signals that packing exceeded the size budget.
var errTruncate = errors.New("dnswire: message exceeds size limit")

// errQuestionTooBig reports a question section that alone exceeds the
// caller's size budget; nothing can be dropped to make it fit.
var errQuestionTooBig = errors.New("dnswire: question alone exceeds size limit")

// errRDataTooLong reports an RDATA payload that cannot be described by
// the 16-bit RDLENGTH field.
var errRDataTooLong = errors.New("dnswire: RDATA exceeds 65535 octets")

// Pack encodes the message with name compression and no size limit.
func (m *Message) Pack() ([]byte, error) { return m.PackBuffer(nil, 0, true) }

// PackBuffer encodes the message into dst (may be nil). If maxSize > 0
// and the encoding would exceed it, records are dropped section by
// section from the tail, the TC bit is set, and the shortened message is
// returned (standard UDP truncation behaviour). compress toggles name
// compression (the ablation benches flip it).
func (m *Message) PackBuffer(dst []byte, maxSize int, compress bool) ([]byte, error) {
	counts := [3]int{len(m.Answers), len(m.Authority), len(m.Additional)}
	for {
		buf, err := m.packCounts(dst, counts, compress && m.hasPointerTargets(counts))
		if err == nil {
			if maxSize > 0 && len(buf) > maxSize {
				err = errTruncate
			} else {
				return buf, nil
			}
		}
		if !errors.Is(err, errTruncate) {
			return nil, err
		}
		// Drop one record from the last non-empty section and retry
		// with TC set.
		switch {
		case counts[2] > 0:
			counts[2]--
		case counts[1] > 0:
			counts[1]--
		case counts[0] > 0:
			counts[0]--
		default:
			return nil, errQuestionTooBig
		}
		m.Header.Truncated = true
	}
}

func (m *Message) packCounts(dst []byte, counts [3]int, compress bool) ([]byte, error) {
	e := encPool.Get().(*encoder)
	defer releaseEncoder(e)
	e.buf = dst[:0]
	e.compress = compress
	e.u16(m.Header.ID)
	e.u16(m.Header.flags())
	e.u16(uint16(len(m.Questions)))
	e.u16(uint16(counts[0]))
	e.u16(uint16(counts[1]))
	e.u16(uint16(counts[2]))
	for _, q := range m.Questions {
		e.name(q.Name, true)
		e.u16(uint16(q.Type))
		e.u16(uint16(q.Class))
	}
	sections := [3][]RR{
		m.Answers[:counts[0]],
		m.Authority[:counts[1]],
		m.Additional[:counts[2]],
	}
	for _, sec := range sections {
		for _, rr := range sec {
			if err := packRR(e, rr); err != nil {
				return nil, err
			}
		}
	}
	return e.buf, nil
}

// hasPointerTargets reports whether any name of the message, cut to
// counts, could be rendered as a pointer to an earlier one. None can
// when at most one question is followed by nothing but root-owned OPT
// records — every query NewQuery builds — and then the same octets come
// out without the compression table being filled and cleared.
func (m *Message) hasPointerTargets(counts [3]int) bool {
	if len(m.Questions) > 1 || counts[0] > 0 || counts[1] > 0 {
		return true
	}
	for _, rr := range m.Additional[:counts[2]] {
		if _, isOPT := rr.Data.(*OPT); !isOPT || !rr.Name.IsRoot() {
			return true
		}
	}
	return false
}

func packRR(e *encoder, rr RR) error {
	e.name(rr.Name, true)
	e.u16(uint16(rr.Type()))
	if o, ok := rr.Data.(*OPT); ok {
		// The OPT struct is authoritative for the fields the pseudo-RR
		// smuggles through class and TTL (RFC 6891 §6.1.2–6.1.3).
		e.u16(o.UDPSize)
		e.u32(o.ttl())
	} else {
		e.u16(uint16(rr.Class))
		e.u32(rr.TTL)
	}
	lenOff := len(e.buf)
	e.u16(0) // RDLENGTH placeholder
	start := len(e.buf)
	rr.Data.appendRData(e)
	rdlen := len(e.buf) - start
	if rdlen > 0xFFFF {
		return errRDataTooLong
	}
	e.buf[lenOff] = byte(rdlen >> 8)
	e.buf[lenOff+1] = byte(rdlen)
	return nil
}

// headerLen is the fixed DNS message header; minQuestionLen and
// minRRLen are the shortest question (root name, type, class) and
// record (root owner, type, class, TTL, RDLENGTH) the wire can carry,
// which bound how many of each a message of a given length can hold
// whatever its header claims.
const (
	headerLen      = 12
	minQuestionLen = 5
	minRRLen       = 11
)

// Unpack decodes a wire-format message. The returned Message owns all
// of its memory: no field aliases msg, so callers may recycle the read
// buffer the moment Unpack returns (the UDP serve loop and
// Network.Exchange do).
//
// The fields of one Message share allocations, one per kind of thing:
// the Message, its question when there is one and the first OPT record's
// payload are one block; every byte field (signatures, keys, digests,
// salts, hashes, option data, opaque RDATA) is a slice of one private
// copy of msg from the first such field on; the three record sections
// are slices of one []RR; every type bitmap is a slice of one []Type;
// and the names after the first are substrings of one string arena.
// Holding any one of them retains that allocation. All are cap-limited
// — appending to a field or a section reallocates it and never writes
// into its neighbour — but, as with any Message, writing through one
// changes that Message only. Nothing is pooled or shared between calls.
func Unpack(msg []byte) (*Message, error) {
	d := &decoder{msg: msg, end: len(msg)}
	id, err := d.u16()
	if err != nil {
		return nil, err
	}
	flags, err := d.u16()
	if err != nil {
		return nil, err
	}
	var counts [4]uint16
	for i := range counts {
		if counts[i], err = d.u16(); err != nil {
			return nil, err
		}
	}
	b := new(unpacked)
	m := &b.msg
	m.Header = headerFromFlags(flags)
	m.Header.ID = id
	d.opt = &b.opt
	// Sized from the header counts, bounded by what the rest of the
	// message can hold: hostile counts allocate nothing they cannot fill.
	body := len(msg) - headerLen
	switch n := min(int(counts[0]), body/minQuestionLen); {
	case n == 1:
		m.Questions = b.question[:0:1]
	case n > 1:
		m.Questions = make([]Question, 0, n)
	}
	var slab []RR
	if n := min(int(counts[1])+int(counts[2])+int(counts[3]), body/minRRLen); n > 0 {
		slab = make([]RR, 0, n)
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
	for s, section := range [...]*[]RR{&m.Answers, &m.Authority, &m.Additional} {
		first := len(slab)
		for i := 0; i < int(counts[s+1]); i++ {
			rr, err := unpackRR(d)
			if err != nil {
				return nil, fmt.Errorf("dnswire: section %d record %d: %w", s, i, err)
			}
			slab = append(slab, rr)
		}
		if last := len(slab); last > first {
			*section = slab[first:last:last]
		}
	}
	if d.off != len(msg) {
		return nil, fmt.Errorf("dnswire: %d trailing octets after message", len(msg)-d.off)
	}
	return m, nil
}

// unpacked is the one block Unpack makes for the fixed part of a
// message: the Message, the array a single question lives in and the
// payload the first OPT record decodes into.
type unpacked struct {
	msg      Message
	question [1]Question
	opt      OPT
}

// errNoQuestion reports a message too short for a header, or whose
// header counts no question.
var errNoQuestion = errors.New("dnswire: message has no question")

// QuestionName decodes the name of msg's first question and nothing
// else: the Name Unpack gives Questions[0], for a caller that answers
// from the query's octets and wants one name of them for its log.
func QuestionName(msg []byte) (Name, error) {
	if len(msg) < headerLen {
		return "", errNoQuestion
	}
	if msg[4]|msg[5] == 0 { // QDCOUNT
		return "", errNoQuestion
	}
	var memo nameMemo
	name, _, err := memo.walk(msg, headerLen, maxPointers)
	return name, err
}

// PlainQuery reads a query of the plain shape straight off the wire:
// one question spelled without compression, no answer or authority
// record, at most one additional record and that a root-owned OPT
// without options, and not an octet after it — what NewQuery renders
// and what resolvers send. For such a message ok is true and h, q, edns
// (an OPT is present) and do (its DO bit) are what Unpack would give its
// Header, Questions[0] and OPT; the question's Name is the call's one
// allocation. Any other message, well-formed or not, reports !ok and is
// Unpack's to judge.
func PlainQuery(msg []byte) (h Header, q Question, edns, do, ok bool) {
	if len(msg) < headerLen {
		return
	}
	u16 := binary.BigEndian.Uint16
	additional := u16(msg[10:])
	if u16(msg[4:]) != 1 || u16(msg[6:]) != 0 || u16(msg[8:]) != 0 || additional > 1 {
		return
	}
	var memo nameMemo
	name, off, err := memo.walk(msg, headerLen, 0) // no pointer followed
	if err != nil || off+4 > len(msg) {
		return
	}
	q = Question{Name: name, Type: Type(u16(msg[off:])), Class: Class(u16(msg[off+2:]))}
	off += 4
	if additional == 1 {
		// Root owner, TYPE, CLASS, TTL (extended RCODE, version, DO and
		// fifteen zero bits), RDLENGTH 0: eleven octets.
		if off+minRRLen != len(msg) || msg[off] != 0 || Type(u16(msg[off+1:])) != TypeOPT || u16(msg[off+9:]) != 0 {
			return
		}
		edns, do = true, msg[off+7]&0x80 != 0
		off += minRRLen
	}
	if off != len(msg) {
		return
	}
	h = headerFromFlags(u16(msg[2:]))
	h.ID = u16(msg)
	return h, q, edns, do, true
}

// AdvertisedUDPSize reads the UDP payload size the query's OPT record
// advertises straight off the wire — the CLASS field of the first OPT
// of the additional section, which is where Message.OPT looks — and is
// 0 for a query without one (or too malformed to have its records
// walked: that one Unpack refuses too).
func AdvertisedUDPSize(q []byte) int {
	if len(q) < headerLen {
		return 0
	}
	u16 := binary.BigEndian.Uint16
	off, ok := headerLen, true
	for n := u16(q[4:]); n > 0; n-- {
		if off, ok = skipName(q, off); !ok {
			return 0
		}
		off += 4 // QTYPE, QCLASS
	}
	additional := int(u16(q[10:]))
	for n := int(u16(q[6:])) + int(u16(q[8:])) + additional; n > 0; n-- {
		// TYPE, CLASS, TTL and RDLENGTH follow the owner name.
		if off, ok = skipName(q, off); !ok || off+10 > len(q) {
			return 0
		}
		if n <= additional && Type(u16(q[off:])) == TypeOPT {
			return int(u16(q[off+2:]))
		}
		off += 10 + int(u16(q[off+8:]))
	}
	return 0
}

// skipName returns the offset past the name at off: past its root
// label, or past the compression pointer that ends it.
func skipName(q []byte, off int) (int, bool) {
	for off < len(q) {
		switch c := int(q[off]); {
		case c == 0:
			return off + 1, true
		case c >= 0xC0:
			return off + 2, true
		default:
			off += 1 + c
		}
	}
	return 0, false
}

func unpackRR(d *decoder) (RR, error) {
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
		opt, err := parseOPT(d, rr.Class, rr.TTL, int(rdlen))
		if err != nil {
			return rr, err
		}
		rr.Data = opt
		return rr, nil
	}
	rr.Data, err = parseRData(t, d, int(rdlen))
	return rr, err
}

// String renders the message in a dig-like multi-section dump,
// convenient in tests and the example programs.
func (m *Message) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ";; opcode: %s, status: %s, id: %d\n",
		m.Header.Opcode, m.ExtendedRCode(), m.Header.ID)
	fmt.Fprintf(&b, ";; flags:")
	for _, f := range []struct {
		on   bool
		name string
	}{
		{m.Header.Response, "qr"}, {m.Header.Authoritative, "aa"},
		{m.Header.Truncated, "tc"}, {m.Header.RecursionDesired, "rd"},
		{m.Header.RecursionAvailable, "ra"}, {m.Header.AuthenticatedData, "ad"},
		{m.Header.CheckingDisabled, "cd"},
	} {
		if f.on {
			b.WriteByte(' ')
			b.WriteString(f.name)
		}
	}
	b.WriteByte('\n')
	if len(m.Questions) > 0 {
		b.WriteString(";; QUESTION:\n")
		for _, q := range m.Questions {
			fmt.Fprintf(&b, ";%s\n", q)
		}
	}
	for _, sec := range []struct {
		name string
		rrs  []RR
	}{{"ANSWER", m.Answers}, {"AUTHORITY", m.Authority}, {"ADDITIONAL", m.Additional}} {
		if len(sec.rrs) == 0 {
			continue
		}
		fmt.Fprintf(&b, ";; %s:\n", sec.name)
		for _, rr := range sec.rrs {
			if _, isOPT := rr.Data.(*OPT); isOPT {
				fmt.Fprintf(&b, ";; %s\n", rr.Data)
				continue
			}
			fmt.Fprintf(&b, "%s\n", rr)
		}
	}
	return b.String()
}
