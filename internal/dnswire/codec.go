package dnswire

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// encoder accumulates a wire-format message. When compress is set,
// eligible names are compressed with pointers into the already-written
// prefix of buf (offsets must fit 14 bits).
//
// Encoders are pooled: packCounts checks one out per message and
// releaseEncoder returns it with the compression table cleared, so the
// steady-state encode path allocates neither the struct nor the map.
type encoder struct {
	buf []byte
	// scratch is AppendRData's own buffer, kept across pool round trips.
	scratch  []byte
	table    map[Name]int // name -> absolute offset of its first encoding
	compress bool
}

var encPool = sync.Pool{
	New: func() any { return &encoder{table: make(map[Name]int, 16)} },
}

// releaseEncoder returns a checked-out encoder to the pool. The buffer
// is caller memory and must not survive the Put; the table is cleared
// so a recycled encoder never compresses against a previous message.
func releaseEncoder(e *encoder) {
	e.buf = nil
	clear(e.table)
	e.compress = false
	encPool.Put(e)
}

func (e *encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// name encodes n, compressing when allowed and profitable. Compression
// works per-suffix: each tail of the name may independently point at an
// earlier occurrence. A suffix of a normalized Name starting at a label
// boundary is itself a normalized Name, so suffixes are string slices
// of n — no label splitting, no per-suffix rebuild.
func (e *encoder) name(n Name, compressible bool) {
	if !e.compress || !compressible {
		e.buf = appendName(e.buf, n)
		return
	}
	s := string(n)
	for pos := 0; pos < len(s); {
		end := pos + labelEnd(s[pos:])
		if end == pos {
			pos = end + 1 // the root has no labels
			continue
		}
		suffix := Name(s[pos:])
		if off, ok := e.table[suffix]; ok && off < 0x4000 {
			e.u16(0xC000 | uint16(off))
			return
		}
		if len(e.buf) < 0x4000 {
			e.table[suffix] = len(e.buf)
		}
		e.buf = appendLabelWire(e.buf, s[pos:end])
		pos = end + 1
	}
	e.buf = append(e.buf, 0)
}

// decoder is the state of one Unpack call, on that call's stack: the
// caller's message, a cursor, the one private copy decoded byte fields
// are cut from, the slab type bitmaps are cut from, the block's OPT
// until an OPT record takes it, and the names decoded so far.
type decoder struct {
	msg   []byte // the caller's buffer: read, never retained
	own   []byte // private copy of msg[base:], made when the first byte field is decoded
	base  int
	off   int
	end   int        // exclusive bound: the RDATA being decoded, len(msg) otherwise
	types TypeBitmap // the bitmap slab: its spare capacity holds the next bitmap
	opt   *OPT
	memo  nameMemo
}

func (d *decoder) remaining() int { return d.end - d.off }

// view returns the next n octets where they lie in the caller's
// buffer, for fields that are converted (addresses, strings, type
// bitmaps) rather than kept.
func (d *decoder) view(n int) ([]byte, error) {
	if n < 0 || d.off+n > d.end {
		return nil, fmt.Errorf("dnswire: need %d octets, have %d", n, d.remaining())
	}
	out := d.msg[d.off : d.off+n]
	d.off += n
	return out, nil
}

// bytes returns the next n octets as a byte field the Message keeps: a
// slice of the private copy — made here, once, from this field to the
// end of the message, so a message without byte fields costs none and
// the header, question and names before the first one are never
// copied — whose capacity ends where the field does, so an append to
// one decoded field reallocates instead of writing into its neighbour.
// A zero-length field is empty, not nil.
func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > d.end {
		return nil, fmt.Errorf("dnswire: need %d octets, have %d", n, d.remaining())
	}
	if d.own == nil {
		d.own, d.base = make([]byte, len(d.msg)-d.off), d.off
		copy(d.own, d.msg[d.off:])
	}
	at := d.off - d.base
	out := d.own[at : at+n : at+n]
	d.off += n
	return out, nil
}

// bitmap decodes the type bitmap that fills the rest of the RDATA as a
// cap-limited cut of the bitmap slab, so that the bitmaps of a message
// share one allocation. A bitmap the slab has no room for starts a new
// slab with room for it and for a type per 32 octets the message still
// holds — about what the NSEC3 records after it name, at well over a
// hundred octets per record and its RRSIG.
func (d *decoder) bitmap() (TypeBitmap, error) {
	raw, err := d.view(d.end - d.off)
	if err != nil {
		return nil, err
	}
	n, err := bitmapTypes(raw)
	if err != nil || n == 0 {
		return nil, err
	}
	if cap(d.types)-len(d.types) < n {
		d.types = make(TypeBitmap, 0, n+(len(d.msg)-d.off)/32)
	}
	start := len(d.types)
	d.types = appendBitmapTypes(d.types, raw)
	return d.types[start:len(d.types):len(d.types)], nil
}

func (d *decoder) u8() (uint8, error) {
	if d.off >= d.end {
		return 0, fmt.Errorf("dnswire: truncated u8")
	}
	v := d.msg[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.off+2 > d.end {
		return 0, fmt.Errorf("dnswire: truncated u16")
	}
	v := binary.BigEndian.Uint16(d.msg[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > d.end {
		return 0, fmt.Errorf("dnswire: truncated u32")
	}
	v := binary.BigEndian.Uint32(d.msg[d.off:])
	d.off += 4
	return v, nil
}

// name decodes a possibly-compressed name; pointers may refer anywhere
// earlier in the full message, even outside the current RDATA bounds.
//
// A name that is nothing but a compression pointer — an RRSIG's owner,
// every pointer to the apex — is looked up in the memo by the offset it
// points at, and the walk is skipped when a label there was read
// before. The answer is the one a walk from d.off would give: the
// same Name, ErrBadPointer when this pointer plus those the remembered
// walk followed exceed the budget, and the same overrun check.
func (d *decoder) name() (Name, error) {
	start, next, lead := d.off, -1, 0
	if d.off+1 < len(d.msg) {
		if c := d.msg[d.off]; c&0xC0 == 0xC0 {
			if ptr := int(c&0x3F)<<8 | int(d.msg[d.off+1]); ptr < d.off {
				start, next, lead = ptr, d.off+2, 1
			}
		}
	}
	var n Name
	var e *memoEntry
	if lead == 1 {
		e = d.memo.at(start)
	}
	if e != nil {
		if lead+int(e.hops) > maxPointers {
			return "", ErrBadPointer
		}
		n = e.name
	} else {
		var end int
		var err error
		if n, end, err = d.memo.walk(d.msg, start, maxPointers-lead); err != nil {
			return "", err
		}
		if next < 0 {
			next = end
		}
	}
	if next > d.end {
		return "", fmt.Errorf("dnswire: name overruns field")
	}
	d.off = next
	return n, nil
}

// charString decodes a length-prefixed <character-string>.
func (d *decoder) charString() (string, error) {
	l, err := d.u8()
	if err != nil {
		return "", err
	}
	b, err := d.view(int(l))
	return string(b), err
}

// lenPrefixed decodes a one-octet-length-prefixed byte field
// (NSEC3 salt and hash fields).
func (d *decoder) lenPrefixed() ([]byte, error) {
	l, err := d.u8()
	if err != nil {
		return nil, err
	}
	return d.bytes(int(l))
}
