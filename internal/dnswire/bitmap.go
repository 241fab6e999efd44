package dnswire

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// TypeBitmap is the set of RR types present at a name, as carried in the
// NSEC and NSEC3 "Type Bit Maps" field (RFC 4034 §4.1.2, RFC 5155 §3.2.1).
type TypeBitmap []Type

// NewTypeBitmap builds a normalized (sorted, deduplicated) bitmap.
func NewTypeBitmap(types ...Type) TypeBitmap {
	tb := make(TypeBitmap, 0, len(types))
	seen := make(map[Type]bool, len(types))
	for _, t := range types {
		if !seen[t] {
			seen[t] = true
			tb = append(tb, t)
		}
	}
	sort.Slice(tb, func(i, j int) bool { return tb[i] < tb[j] })
	return tb
}

// Contains reports whether t is present in the bitmap.
func (tb TypeBitmap) Contains(t Type) bool {
	i := sort.Search(len(tb), func(i int) bool { return tb[i] >= t })
	return i < len(tb) && tb[i] == t
}

// String renders the bitmap in presentation form ("A NS SOA RRSIG …").
func (tb TypeBitmap) String() string {
	parts := make([]string, len(tb))
	for i, t := range tb {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// appendBitmap appends the window-block wire encoding of the bitmap.
// The bitmap must be normalized (sorted ascending); NewTypeBitmap
// guarantees this.
func appendBitmap(dst []byte, tb TypeBitmap) []byte {
	if len(tb) == 0 {
		return dst
	}
	// Gather types per 256-type window.
	i := 0
	for i < len(tb) {
		window := byte(tb[i] >> 8)
		var bits [32]byte
		maxOctet := 0
		for i < len(tb) && byte(tb[i]>>8) == window {
			low := byte(tb[i])
			octet := int(low / 8)
			bits[octet] |= 0x80 >> (low % 8)
			if octet > maxOctet {
				maxOctet = octet
			}
			i++
		}
		dst = append(dst, window, byte(maxOctet+1))
		dst = append(dst, bits[:maxOctet+1]...)
	}
	return dst
}

// readBitmap decodes a window-block bitmap occupying data entirely,
// reading it where it lies: one pass checks the window blocks and
// counts the set bits, a second fills a slice of exactly that size. A
// bitmap with no bit set is nil.
func readBitmap(data []byte) (TypeBitmap, error) {
	types := 0
	lastWindow := -1
	for rest := data; len(rest) > 0; {
		if len(rest) < 2 {
			return nil, fmt.Errorf("dnswire: truncated type bitmap")
		}
		window := int(rest[0])
		length := int(rest[1])
		if length == 0 || length > 32 {
			return nil, fmt.Errorf("dnswire: bad bitmap window length %d", length)
		}
		if window <= lastWindow {
			return nil, fmt.Errorf("dnswire: bitmap windows out of order")
		}
		lastWindow = window
		rest = rest[2:]
		if len(rest) < length {
			return nil, fmt.Errorf("dnswire: truncated bitmap window")
		}
		for _, b := range rest[:length] {
			types += bits.OnesCount8(b)
		}
		rest = rest[length:]
	}
	if types == 0 {
		return nil, nil
	}
	tb := make(TypeBitmap, 0, types)
	for rest := data; len(rest) >= 2; {
		window, length := int(rest[0]), int(rest[1])
		rest = rest[2:]
		for octet, b := range rest[:length] {
			for b != 0 {
				bit := bits.LeadingZeros8(b) // bit 0 is the most significant
				tb = append(tb, Type(window<<8|octet*8+bit))
				b &^= 0x80 >> bit
			}
		}
		rest = rest[length:]
	}
	return tb, nil
}
