// Package dnswire implements the DNS wire format: domain names with
// compression, message headers, EDNS(0) including Extended DNS Errors
// (RFC 8914), and a full resource-record codec covering every type the
// NSEC3 measurement pipeline needs (A, AAAA, NS, SOA, CNAME, TXT, MX,
// PTR, DNSKEY, RRSIG, DS, NSEC, NSEC3, NSEC3PARAM, OPT).
//
// The package is self-contained (standard library only) and is the base
// substrate for everything else in this repository: the DNSSEC signer,
// the NSEC3 chain builder, the authoritative server, the validating
// resolver, and the scanner all speak through these types.
package dnswire

import (
	"cmp"
	"errors"
	"fmt"
	"strings"
)

// Name is a fully-qualified domain name in normalized presentation form:
// lowercase, with a trailing dot. The root is ".". Binary label octets
// outside [!-~] or special characters are escaped \DDD / \c as in master
// files, so every Name round-trips through its string form losslessly.
//
// All constructors in this package normalize to this form, so Name values
// are directly comparable with == for case-insensitive DNS name equality.
type Name string

// Root is the DNS root name.
const Root Name = "."

// MaxNameWireLen is the maximum length of a domain name on the wire
// (RFC 1035 §3.1).
const MaxNameWireLen = 255

// MaxLabelLen is the maximum length of a single label (RFC 1035 §3.1).
const MaxLabelLen = 63

// Errors returned by name parsing and packing.
var (
	ErrNameTooLong  = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel   = errors.New("dnswire: empty label")
	ErrBadEscape    = errors.New("dnswire: bad escape sequence")
	ErrBadPointer   = errors.New("dnswire: bad compression pointer")
	ErrNameTrunc    = errors.New("dnswire: truncated name")
)

// ParseName parses a domain name in presentation format. Both absolute
// ("example.com.") and relative ("example.com") inputs are accepted;
// relative names are made absolute by appending the root. The empty
// string and "." both denote the root. Escapes \DDD and \c are honored.
func ParseName(s string) (Name, error) {
	labels, err := splitPresentation(s)
	if err != nil {
		return "", err
	}
	return fromLabels(labels)
}

// FromLabels assembles a Name from raw (unescaped) labels, leftmost
// first. Labels are lowercased and validated; no labels yields the root.
func FromLabels(labels ...string) (Name, error) { return fromLabels(labels) }

// MustParseName is ParseName that panics on error, for constants in tests
// and examples.
func MustParseName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// fromLabels assembles a normalized Name from raw (unescaped) label
// byte strings, lowercasing ASCII letters and validating lengths.
func fromLabels(labels []string) (Name, error) {
	if len(labels) == 0 {
		return Root, nil
	}
	wireLen := 1 // root byte
	var b strings.Builder
	for _, l := range labels {
		if len(l) == 0 {
			return "", ErrEmptyLabel
		}
		if len(l) > MaxLabelLen {
			return "", ErrLabelTooLong
		}
		wireLen += 1 + len(l)
		if wireLen > MaxNameWireLen {
			return "", ErrNameTooLong
		}
		b.WriteString(escapeLabel(lowerLabel(l)))
		b.WriteByte('.')
	}
	return Name(b.String()), nil
}

// lowerLabel lowercases ASCII letters in a raw label.
func lowerLabel(l string) string {
	for i := 0; i < len(l); i++ {
		if c := l[i]; c >= 'A' && c <= 'Z' {
			lb := []byte(l)
			for j := i; j < len(lb); j++ {
				lb[j] = lowerByte(lb[j])
			}
			return string(lb)
		}
	}
	return l
}

// splitPresentation splits a presentation-format name into raw label
// strings, decoding escapes and lowercasing ASCII letters.
func splitPresentation(s string) ([]string, error) {
	if s == "" || s == "." {
		return nil, nil
	}
	var labels []string
	var cur []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\\':
			if i+1 >= len(s) {
				return nil, ErrBadEscape
			}
			next := s[i+1]
			if next >= '0' && next <= '9' {
				if i+3 >= len(s) || s[i+2] < '0' || s[i+2] > '9' || s[i+3] < '0' || s[i+3] > '9' {
					return nil, ErrBadEscape
				}
				v := int(next-'0')*100 + int(s[i+2]-'0')*10 + int(s[i+3]-'0')
				if v > 255 {
					return nil, ErrBadEscape
				}
				cur = append(cur, lowerByte(byte(v)))
				i += 3
			} else {
				cur = append(cur, lowerByte(next))
				i++
			}
		case c == '.':
			if len(cur) == 0 {
				return nil, ErrEmptyLabel
			}
			labels = append(labels, string(cur))
			cur = cur[:0]
		default:
			cur = append(cur, lowerByte(c))
		}
	}
	if len(cur) > 0 {
		labels = append(labels, string(cur))
	}
	return labels, nil
}

func lowerByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// escapeLabel renders a raw label in presentation form, escaping '.',
// '\' and non-printable octets.
func escapeLabel(l string) string {
	needs := false
	for i := 0; i < len(l); i++ {
		c := l[i]
		if c == '.' || c == '\\' || c < '!' || c > '~' {
			needs = true
			break
		}
	}
	if !needs {
		return l
	}
	var b strings.Builder
	for i := 0; i < len(l); i++ {
		c := l[i]
		switch {
		case c == '.' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < '!' || c > '~':
			fmt.Fprintf(&b, "\\%03d", c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// Labels returns the raw (unescaped) labels of n, leftmost first.
// The root has no labels.
func (n Name) Labels() []string {
	labels, err := splitPresentation(string(n))
	if err != nil {
		// A Name constructed through this package cannot fail here.
		panic(fmt.Sprintf("dnswire: corrupt Name %q: %v", string(n), err))
	}
	return labels
}

// String returns the presentation form ("." for the root).
func (n Name) String() string {
	if n == "" {
		return "."
	}
	return string(n)
}

// IsRoot reports whether n is the DNS root.
func (n Name) IsRoot() bool { return n == Root || n == "" }

// labelEnd returns the length of the first label of a normalized
// presentation string: the offset of the first unescaped '.', or
// len(s) if there is none. Escapes are skipped whole (\c is two bytes,
// \DDD is four), so a dot inside an escape never terminates the label.
func labelEnd(s string) int {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			if i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9' {
				i += 3
			} else {
				i++
			}
		case c == '.':
			return i
		}
	}
	return len(s)
}

// labelWireLen returns the number of raw octets a presentation-form
// label decodes to (each \c and \DDD escape is one octet).
func labelWireLen(lab string) int {
	n := 0
	for i := 0; i < len(lab); i++ {
		if lab[i] == '\\' {
			if i+1 < len(lab) && lab[i+1] >= '0' && lab[i+1] <= '9' {
				i += 3
			} else {
				i++
			}
		}
		n++
	}
	return n
}

// appendLabelWire appends the wire encoding of one presentation-form
// label to dst: a length octet followed by the raw label bytes, with
// \c and \DDD escapes decoded.
func appendLabelWire(dst []byte, lab string) []byte {
	lenOff := len(dst)
	dst = append(dst, 0)
	for i := 0; i < len(lab); i++ {
		c := lab[i]
		if c == '\\' && i+1 < len(lab) {
			next := lab[i+1]
			if next >= '0' && next <= '9' && i+3 < len(lab) {
				c = byte(int(next-'0')*100 + int(lab[i+2]-'0')*10 + int(lab[i+3]-'0'))
				i += 3
			} else {
				c = next
				i++
			}
		}
		dst = append(dst, c)
	}
	dst[lenOff] = byte(len(dst) - lenOff - 1)
	return dst
}

// CountLabels returns the number of labels (0 for the root).
func (n Name) CountLabels() int {
	s := string(n)
	count := 0
	for pos := 0; pos < len(s); {
		end := pos + labelEnd(s[pos:])
		if end > pos {
			count++
		}
		pos = end + 1
	}
	return count
}

// Parent returns the name with the leftmost label removed. The parent of
// the root is the root. A suffix of a normalized Name starting at a
// label boundary is itself a normalized Name, so this is a slice, not a
// rebuild.
func (n Name) Parent() Name {
	if n.IsRoot() {
		return Root
	}
	s := string(n)
	end := labelEnd(s)
	if end+1 >= len(s) {
		return Root
	}
	return Name(s[end+1:])
}

// Child returns label + "." + n, where label is one raw (unescaped)
// label: the same name, or the same error, as FromLabels(label,
// n.Labels()...). Only the new label is validated, ASCII-lowercased
// (RFC 4343 — octets above 0x7F are not letters) and escaped; n is
// already normalized, so it is appended as it stands and the result is
// the call's one allocation.
func (n Name) Child(label string) (Name, error) {
	switch {
	case len(label) == 0:
		return "", ErrEmptyLabel
	case len(label) > MaxLabelLen:
		return "", ErrLabelTooLong
	case 1+len(label)+n.WireLen() > MaxNameWireLen:
		return "", ErrNameTooLong
	}
	var pres [presBufLen]byte
	w := 0
	for i := 0; i < len(label); i++ {
		w = appendPresByte(&pres, w, lowerByte(label[i]))
	}
	pres[w] = '.'
	w++
	parent := string(n)
	if n.IsRoot() {
		parent = ""
	}
	var b strings.Builder
	b.Grow(w + len(parent))
	b.Write(pres[:w])
	b.WriteString(parent)
	return Name(b.String()), nil
}

// MustChild is Child that panics on error.
func (n Name) MustChild(label string) Name {
	c, err := n.Child(label)
	if err != nil {
		panic(err)
	}
	return c
}

// IsSubdomainOf reports whether n is equal to or a descendant of zone.
// Both names are normalized, so n is under zone exactly when zone is a
// suffix of n starting at one of n's label boundaries.
func (n Name) IsSubdomainOf(zone Name) bool {
	if zone.IsRoot() {
		return true
	}
	s, z := string(n), string(zone)
	for pos := 0; pos < len(s); {
		rest := len(s) - pos
		if rest == len(z) {
			return s[pos:] == z
		}
		if rest < len(z) {
			return false
		}
		pos += labelEnd(s[pos:]) + 1
	}
	return false
}

// Wildcard returns "*." + n.
func (n Name) Wildcard() Name { return n.MustChild("*") }

// IsWildcard reports whether the leftmost label of n is "*".
func (n Name) IsWildcard() bool {
	s := string(n)
	return len(s) >= 2 && s[0] == '*' && s[1] == '.'
}

// maxLabels bounds the labels of a wire-legal name: 255 octets less the
// root byte, at two octets (length + one) per label.
const maxLabels = (MaxNameWireLen - 1) / 2

// labelStarts appends the offset of each label of s, leftmost first, to
// buf[:0]. The result stays in buf, on the caller's stack, for any name
// this package constructs; the presentation form of such a name is
// under presBufLen bytes, so offsets fit uint16.
func labelStarts(s string, buf *[maxLabels]uint16) []uint16 {
	starts := buf[:0]
	for pos := 0; pos < len(s); {
		end := pos + labelEnd(s[pos:])
		if end > pos {
			starts = append(starts, uint16(pos))
		}
		pos = end + 1
	}
	return starts
}

// labelAt returns the i'th label of s given its label starts: up to the
// dot before the next start, or for the last label up to its own end.
func labelAt(s string, starts []uint16, i int) string {
	if i+1 < len(starts) {
		return s[starts[i] : starts[i+1]-1]
	}
	rest := s[starts[i]:]
	return rest[:labelEnd(rest)]
}

// labelOctet decodes the raw octet at offset i of a presentation-form
// label (one byte, \c or \DDD) and returns it with the offset after it.
func labelOctet(lab string, i int) (byte, int) {
	c := lab[i]
	if c != '\\' || i+1 >= len(lab) {
		return c, i + 1
	}
	next := lab[i+1]
	if next >= '0' && next <= '9' && i+3 < len(lab) {
		return byte(int(next-'0')*100 + int(lab[i+2]-'0')*10 + int(lab[i+3]-'0')), i + 4
	}
	return next, i + 2
}

// compareLabels orders two presentation-form labels by their raw
// octets. Without escapes the presentation bytes are the raw octets.
func compareLabels(a, b string) int {
	if strings.IndexByte(a, '\\') < 0 && strings.IndexByte(b, '\\') < 0 {
		return strings.Compare(a, b)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		var ca, cb byte
		ca, i = labelOctet(a, i)
		cb, j = labelOctet(b, j)
		if ca != cb {
			return cmp.Compare(ca, cb)
		}
	}
	return cmp.Compare(len(a)-i, len(b)-j)
}

// CanonicalCompare implements the canonical DNS name ordering of
// RFC 4034 §6.1: names are compared right-to-left label by label, each
// label as a left-justified octet string with uppercase US-ASCII mapped
// to lowercase (our labels are already lowercase). It returns -1, 0, or
// +1. Labels are compared where they stand in the two names — sort
// comparators during signing call this per pair, so it allocates
// nothing.
func CanonicalCompare(a, b Name) int {
	var abuf, bbuf [maxLabels]uint16
	as, bs := labelStarts(string(a), &abuf), labelStarts(string(b), &bbuf)
	i, j := len(as)-1, len(bs)-1
	for ; i >= 0 && j >= 0; i, j = i-1, j-1 {
		if c := compareLabels(labelAt(string(a), as, i), labelAt(string(b), bs, j)); c != 0 {
			return c
		}
	}
	return cmp.Compare(i, j)
}

// WireLen returns the encoded length of n without compression.
func (n Name) WireLen() int {
	s := string(n)
	l := 1
	for pos := 0; pos < len(s); {
		end := pos + labelEnd(s[pos:])
		if end > pos {
			l += 1 + labelWireLen(s[pos:end])
		}
		pos = end + 1
	}
	return l
}

// appendName appends the uncompressed wire encoding of n to dst,
// decoding presentation escapes directly into dst without splitting n
// into label strings.
func appendName(dst []byte, n Name) []byte {
	s := string(n)
	for pos := 0; pos < len(s); {
		end := pos + labelEnd(s[pos:])
		if end > pos {
			dst = appendLabelWire(dst, s[pos:end])
		}
		pos = end + 1
	}
	return append(dst, 0)
}

// AppendWire appends the uncompressed wire encoding of n to dst. This is
// the canonical (lowercase, uncompressed) form used by DNSSEC signing
// and by NSEC3 hashing.
func (n Name) AppendWire(dst []byte) []byte { return appendName(dst, n) }

// presBufLen bounds the presentation form of any wire-legal name: at
// most 254 raw label octets (wireLen <= 255), each rendered as at most
// four presentation bytes (\DDD), plus one dot per label. 4*254 = 1016.
const presBufLen = 1024

// appendPresByte writes one raw label octet into the presentation
// buffer at offset w, escaping '.', '\' and non-printable octets the
// same way escapeLabel does, and returns the new offset.
func appendPresByte(pres *[presBufLen]byte, w int, c byte) int {
	switch {
	case c == '.' || c == '\\':
		pres[w] = '\\'
		pres[w+1] = c
		return w + 2
	case c < '!' || c > '~':
		pres[w] = '\\'
		pres[w+1] = '0' + c/100
		pres[w+2] = '0' + c/10%10
		pres[w+3] = '0' + c%10
		return w + 4
	default:
		pres[w] = c
		return w + 1
	}
}

// plainOctet marks the label octets whose presentation form is the
// octet itself: printable ASCII that is neither a letter to fold nor a
// character to escape. A label made only of these is copied whole.
var plainOctet = func() (t [256]bool) {
	for c := '!'; c <= '~'; c++ {
		t[c] = c != '.' && c != '\\' && (c < 'A' || c > 'Z')
	}
	return t
}()

// errReservedLabel reports a label whose two high bits are 01 or 10
// (RFC 1035 §4.1.4 reserves both), indexed by the higher of them. Made
// once: the walk is on the serving path and hostile wire is where it
// fails.
var errReservedLabel = [2]error{
	errors.New("dnswire: reserved label type 0x40"),
	errors.New("dnswire: reserved label type 0x80"),
}

// maxPointers bounds the compression pointers one name may follow: a
// generous loop guard, real messages chain a few at most.
const maxPointers = 64

// memoSize is the number of label offsets one Unpack remembers. The
// benchmark's signed NXDOMAIN response visits sixteen: three in the
// question, one per host and hashed owner spelled before a pointer, two
// per RRSIG signer name spelled out in full; twice that leaves room for
// a response with more records.
const memoSize = 32

// nameMemo remembers, for the one Unpack call whose stack it lives on,
// every label a walk of this message has read: its wire offset, the
// name a walk from there gives (a suffix of the name that walk
// decoded, so a substring of that name's string), the pointers such a
// walk follows and the octets the name takes. It serves two lookups. By
// offset (at), a bare compression pointer — an RRSIG's owner, every
// pointer to the apex inside the question — costs no walk, and a
// pointer met inside a walk appends the remembered presentation instead
// of walking those labels again. By content (intern), a name spelled
// out again elsewhere — the signer name of every RRSIG — shares the
// string it already has. Once full it stops learning; nothing in it
// outlives Unpack or comes from anywhere but the message being decoded.
//
// It also lends every walk the buffer a presentation form is assembled
// in, and holds the string arena the distinct names after the first are
// cut from.
type nameMemo struct {
	n     int
	e     [memoSize]memoEntry
	named bool            // a name of this message has been given its own string
	arena strings.Builder // only ever appended to: what it handed out never changes
	pres  [presBufLen]byte
}

// memoEntry is one remembered label. While the walk that read it is
// under way, start is where its presentation begins in pres and hops
// and wire count the pointers and octets before it; once the name is
// known they become the suffix's own.
type memoEntry struct {
	name  Name
	off   uint16
	start uint16
	hops  uint8
	wire  uint8
}

// at returns the entry remembered for wire offset off, if there is one.
func (m *nameMemo) at(off int) *memoEntry {
	for i := range m.e[:m.n] {
		if int(m.e[i].off) == off {
			return &m.e[i]
		}
	}
	return nil
}

// intern converts an assembled presentation buffer into a Name: the
// remembered Name with these bytes when this message already produced
// one. Otherwise the stack buffer is copied, because a Name must own its
// bytes: the message's first distinct name into a string of its own
// (so a caller that decodes one name pays one exact allocation), every
// later one into the arena. The arena is sized from the octets the
// message still holds after this name, left: a quarter of them, about
// what a signed response's remaining owner, host and hashed names
// take, or, if that is more, room for three names as long as this one —
// enough for an unsigned negative answer's two SOA names. When a name
// does not fit, a fresh arena takes over.
func (m *nameMemo) intern(pres []byte, left int) Name {
	for i := range m.e[:m.n] {
		if string(m.e[i].name) == string(pres) {
			return m.e[i].name
		}
	}
	if !m.named {
		m.named = true
		return Name(pres)
	}
	if m.arena.Cap()-m.arena.Len() < len(pres) {
		m.arena = strings.Builder{}
		m.arena.Grow(max(3*len(pres), left/4))
	}
	start := m.arena.Len()
	m.arena.Write(pres)
	return Name(m.arena.String()[start:])
}

// walk decodes a possibly-compressed name starting at off in msg,
// following at most budget compression pointers. It returns the name
// and the offset just past the name's first occurrence (i.e. past the
// pointer if the name was compressed). The presentation form is
// assembled in m.pres, and every label read is remembered once the name
// is known (a name that fails to decode teaches the memo nothing); the
// only allocation is in intern.
func (m *nameMemo) walk(msg []byte, off, budget int) (Name, int, error) {
	learned := m.n
	w, end, hops, wireLen, err := m.spell(msg, off, budget)
	if err != nil {
		m.n = learned
		return "", 0, err
	}
	if w == 0 {
		return Root, end, nil
	}
	name := m.intern(m.pres[:w], len(msg)-end)
	for i := range m.e[learned:m.n] {
		e := &m.e[learned+i]
		e.name = name[e.start:]
		e.hops = uint8(hops) - e.hops
		e.wire = uint8(wireLen) - e.wire
	}
	return name, end, nil
}

// spell assembles the presentation form of the name at off into m.pres
// and returns its length, the offset past the name's first occurrence,
// the pointers followed and the octets the name takes uncompressed. A
// pointer to a remembered offset appends the remembered presentation
// and ends the walk — but only when the pointers and octets it adds
// stay within budget and MaxNameWireLen; otherwise its labels are
// walked again, so that a name over either limit fails exactly where a
// label-by-label walk would. Each label read is entered in the memo
// with its position so far, for walk to complete.
func (m *nameMemo) spell(msg []byte, off, budget int) (w, end, hops, wireLen int, err error) {
	pres := &m.pres
	end = -1 // offset to return (set at first pointer)
	wireLen = 1
	for {
		if off < 0 || off >= len(msg) {
			return 0, 0, 0, 0, ErrNameTrunc
		}
		c := msg[off]
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			return w, end, hops, wireLen, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return 0, 0, 0, 0, ErrNameTrunc
			}
			if hops++; hops > budget {
				return 0, 0, 0, 0, ErrBadPointer
			}
			ptr := int(c&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if ptr >= off {
				return 0, 0, 0, 0, ErrBadPointer
			}
			off = ptr
			// An entry without a name is this walk's own: the pointer
			// closes a loop, which the limits end.
			if e := m.at(ptr); e != nil && e.name != "" && hops+int(e.hops) <= budget && wireLen+int(e.wire)-1 <= MaxNameWireLen {
				w += copy(pres[w:], e.name)
				return w, end, hops + int(e.hops), wireLen + int(e.wire) - 1, nil
			}
		case c&0xC0 != 0:
			return 0, 0, 0, 0, errReservedLabel[c>>7]
		default:
			if off+1+int(c) > len(msg) {
				return 0, 0, 0, 0, ErrNameTrunc
			}
			if m.n < memoSize && off < 0x4000 {
				m.e[m.n] = memoEntry{off: uint16(off), start: uint16(w), hops: uint8(hops), wire: uint8(wireLen - 1)}
				m.n++
			}
			wireLen += 1 + int(c)
			if wireLen > MaxNameWireLen {
				return 0, 0, 0, 0, ErrNameTooLong
			}
			label := msg[off+1 : off+1+int(c)]
			plain := true
			for _, b := range label {
				plain = plain && plainOctet[b]
			}
			if plain {
				w += copy(pres[w:], label)
			} else {
				for _, b := range label {
					w = appendPresByte(pres, w, lowerByte(b))
				}
			}
			pres[w] = '.'
			w++
			off += 1 + int(c)
		}
	}
}
