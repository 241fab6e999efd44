// Package hotfix is the hotpathalloc golden fixture: annotated roots
// whose reachable chains allocate, one compliant twin per allocation
// kind, waiver absorption, and directive hygiene in both directions.
package hotfix

import "fmt"

// Serve is an annotated root; encode is hot through it.
//
//repro:hotpath fixture: the serving loop must not allocate
func Serve(dst []byte, n int) []byte {
	return encode(dst, n)
}

// encode allocates a scratch buffer instead of reusing dst.
func encode(dst []byte, n int) []byte {
	tmp := make([]byte, n) // want `hot path must not allocate: a make call in hotfix\.Serve → hotfix\.encode`
	copy(tmp, dst)
	return append(dst, byte(n))
}

// CleanServe is the compliant twin: stack scratch plus appends into
// caller-owned memory only.
//
//repro:hotpath fixture: the compliant twin stays silent
func CleanServe(dst, src []byte) []byte {
	var scratch [8]byte
	buf := scratch[:0]
	buf = append(buf, src...)
	return append(dst, buf...)
}

// Log drags fmt onto the hot path.
//
//repro:hotpath fixture: logging crept into the serving loop
func Log(v int) {
	fmt.Println(v) // want `hot path must not allocate: a fmt\.Println call in hotfix\.Log`
}

func take(v any) {}

// Box passes a concrete value to an interface parameter.
//
//repro:hotpath fixture: dispatch must not box its argument
func Box(n int) {
	take(n) // want `interface boxing of a non-pointer int argument`
}

// Str converts wire bytes to a string per call.
//
//repro:hotpath fixture: conversions copy
func Str(b []byte) string {
	return string(b) // want `a \[\]byte/\[\]rune-to-string conversion`
}

// Count writes a map per query.
//
//repro:hotpath fixture: per-query map writes rehash
func Count(m map[string]int, k string) {
	m[k]++ // want `a map write`
}

// Each builds a capturing closure per call.
//
//repro:hotpath fixture: callbacks must not capture
func Each(n int) {
	f := func() int { return n } // want `a variable-capturing closure`
	_ = f()
}

// Read calls into a waived helper: the waiver absorbs, so fill's map
// literal reports nothing.
//
//repro:hotpath fixture: waived callees absorb
func Read(dst []byte) []byte {
	return fill(dst)
}

// fill pays a documented one-time cost.
//
//repro:allocok fixture: the table is built once and memoized by the caller
func fill(dst []byte) []byte {
	table := map[int]int{1: 1}
	return append(dst, byte(len(table)))
}

//repro:hotpath
func BareRoot() {} // want `//repro:hotpath directive without a reason`

//repro:allocok
func BareWaiver() { // want `//repro:allocok directive without a reason`
	_ = make([]byte, 1)
}

// Conflicted claims to be both a root and a waiver.
//
//repro:hotpath fixture: contradictory root
//repro:allocok fixture: cannot also waive itself
func Conflicted() { // want `//repro:hotpath and //repro:allocok on the same declaration contradict each other`
	_ = make([]byte, 8)
}

// Idle carries a waiver that silences nothing.
//
//repro:allocok fixture: stale — nothing here allocates
func Idle(n int) int { // want `//repro:allocok on hotfix\.Idle waives nothing`
	return n + 1
}

// Misspelled meant to be a root; the typo would silently drop it out of
// the proof, so the unknown name is itself a finding.
//
//repro:hotpaht fixture: transposed letters
func Misspelled() { // want `unknown directive //repro:hotpaht; known: //repro:allocok, //repro:ctxexempt, //repro:hotpath, //repro:nondeterministic, //repro:wiretrusted`
	_ = make([]byte, 8)
}

const step = 2

// Stride's literal reads the captured n and then the constant step:
// the capture counts whatever identifiers follow it.
//
//repro:hotpath fixture: callbacks must not capture
func Stride(n int) {
	g := func() int { return n * step } // want `a variable-capturing closure`
	_ = g()
}
