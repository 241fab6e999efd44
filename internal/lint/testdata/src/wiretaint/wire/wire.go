// Package wire is the codec half of the wiretaint fixture: every
// []byte parameter here is untrusted by definition (the fixture's fake
// import path ends in internal/dnswire). It exercises the sink kinds,
// the narrow-type and guard sanitizers, cross-function propagation,
// and the propagate-through-waiver rule.
package wire

import "encoding/binary"

// Decode sizes an allocation straight from a 32-bit wire field.
func Decode(b []byte) []byte {
	n := binary.BigEndian.Uint32(b)
	out := make([]byte, n) // want `make sized from untrusted wire bytes without a dominating bounds guard: untrusted wire bytes → wire\.Decode`
	copy(out, b[4:])
	return out
}

// DecodeSafe guards the decoded length against the buffer before use.
func DecodeSafe(b []byte) []byte {
	n := int(binary.BigEndian.Uint32(b))
	if n < 0 || n > len(b)-4 {
		return nil
	}
	out := make([]byte, n)
	copy(out, b[4:])
	return out
}

// DecodeNarrow reads a 16-bit length: bounded by its width, so the
// worst allocation is the 64 KiB the attacker already paid to send.
func DecodeNarrow(b []byte) []byte {
	n := binary.BigEndian.Uint16(b)
	return make([]byte, n)
}

// Parse hands the decoded length to a helper: the sink reports in the
// helper, with the chain crossing the call.
func Parse(b []byte) []byte {
	n := binary.BigEndian.Uint32(b)
	return alloc(int(n))
}

func alloc(n int) []byte {
	return make([]byte, n) // want `make sized from untrusted wire bytes without a dominating bounds guard: untrusted wire bytes → wire\.Parse → wire\.alloc`
}

// Trusted is waived: its own sink is silenced, but the tainted length
// it forwards must still taint the unwaived helper — a waiver can
// never launder attacker bytes for the rest of the call tree.
//
//repro:wiretrusted fixture: framing is assumed fuzz-verified; proves the waiver does not stop propagation
func Trusted(b []byte) []byte {
	n := int(binary.BigEndian.Uint32(b))
	big := make([]byte, n) // waived: no finding on this line
	_ = big
	return allocT(n)
}

func allocT(n int) []byte {
	return make([]byte, n) // want `make sized from untrusted wire bytes without a dominating bounds guard: untrusted wire bytes → wire\.Trusted → wire\.allocT`
}

// BareWire carries a directive with no justification.
//
//repro:wiretrusted
func BareWire() {} // want `//repro:wiretrusted directive without a reason`

// Scan iterates as many times as the wire says.
func Scan(b []byte) int {
	count := binary.BigEndian.Uint32(b)
	sum := 0
	for i := uint32(0); i < count; i++ { // want `loop bounded by an untrusted wire value without a dominating bounds guard: untrusted wire bytes → wire\.Scan`
		sum += int(i)
	}
	return sum
}

// At indexes by a wire-decoded offset.
func At(b []byte) byte {
	off := binary.BigEndian.Uint32(b)
	return b[off] // want `slice index derived from untrusted wire bytes without a dominating bounds guard: untrusted wire bytes → wire\.At`
}

// Window slices by a wire-decoded bound.
func Window(b []byte) []byte {
	end := binary.BigEndian.Uint32(b)
	return b[:end] // want `slice bound derived from untrusted wire bytes without a dominating bounds guard: untrusted wire bytes → wire\.Window`
}

// SelectSend sizes an allocation inside a select's communication
// clause — a statement position of its own, not part of any body.
func SelectSend(b []byte, ch chan []byte) {
	n := binary.BigEndian.Uint32(b)
	select {
	case ch <- make([]byte, n): // want `make sized from untrusted wire bytes without a dominating bounds guard: untrusted wire bytes → wire\.SelectSend`
	default:
	}
}

// SelectSendSafe is the guarded twin.
func SelectSendSafe(b []byte, ch chan []byte) {
	n := int(binary.BigEndian.Uint32(b))
	if n > len(b) {
		return
	}
	select {
	case ch <- make([]byte, n):
	default:
	}
}

// PostAlloc allocates in a for statement's post clause.
func PostAlloc(b []byte) []byte {
	n := binary.BigEndian.Uint32(b)
	var out []byte
	for i := 0; i < 2; out = make([]byte, n) { // want `make sized from untrusted wire bytes without a dominating bounds guard: untrusted wire bytes → wire\.PostAlloc`
		i++
	}
	return out
}

// PostAllocSafe is the guarded twin.
func PostAllocSafe(b []byte) []byte {
	n := int(binary.BigEndian.Uint32(b))
	if n > len(b) {
		return nil
	}
	var out []byte
	for i := 0; i < 2; out = make([]byte, n) {
		i++
	}
	return out
}

// SwitchInit allocates in a type switch's init statement.
func SwitchInit(b []byte, v any) int {
	n := binary.BigEndian.Uint32(b)
	switch out := make([]byte, n); v.(type) { // want `make sized from untrusted wire bytes without a dominating bounds guard: untrusted wire bytes → wire\.SwitchInit`
	case int:
		return len(out)
	}
	return 0
}

// SwitchInitSafe is the guarded twin.
func SwitchInitSafe(b []byte, v any) int {
	n := int(binary.BigEndian.Uint32(b))
	if n > len(b) {
		return 0
	}
	switch out := make([]byte, n); v.(type) {
	case int:
		return len(out)
	}
	return 0
}

// CaseExpr indexes by a wire offset inside a case expression.
func CaseExpr(b []byte, want byte) bool {
	off := binary.BigEndian.Uint32(b)
	switch want {
	case b[off]: // want `slice index derived from untrusted wire bytes without a dominating bounds guard: untrusted wire bytes → wire\.CaseExpr`
		return true
	}
	return false
}

// LoopCond slices by a wire bound inside a for condition that is not
// itself a comparison against the wire value.
func LoopCond(b []byte) int {
	end := binary.BigEndian.Uint32(b)
	n := 0
	for len(b[:end]) > n { // want `slice bound derived from untrusted wire bytes without a dominating bounds guard: untrusted wire bytes → wire\.LoopCond`
		n++
	}
	return n
}

// SwitchAssign allocates in a type switch's assign statement.
func SwitchAssign(b []byte, box func([]byte) any) int {
	n := binary.BigEndian.Uint32(b)
	switch v := box(make([]byte, n)).(type) { // want `make sized from untrusted wire bytes without a dominating bounds guard: untrusted wire bytes → wire\.SwitchAssign`
	case int:
		return v
	}
	return 0
}
