package dnssec

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// verifyMemoCap bounds a VerifyMemo: a table that has reached it is
// flushed whole before the next insert.
const verifyMemoCap = 1 << 14

// VerifyMemo remembers the verdicts of cryptographic signature checks
// so that a study's many validators verify each distinct signature
// once. It is the read-side twin of testbed.SignCache: that shares
// signing across worlds, this shares checking across resolvers.
//
// The key is SHA-256 over the length-prefixed algorithm, DNSKEY public
// key, RRSIG signature and SHA-256 of the signed data (RRSIG RDATA
// minus signature ‖ canonical RRset), so it covers every byte the
// verdict depends on and nothing else: change one bit of the signature,
// any RDATA, the owner, OrigTTL or the key and it is a different entry.
// The value is checkSignature's result, valid or not. Whatever is not a
// pure function of those bytes stays outside and runs on every call —
// key flags, protocol, algorithm and key-tag match, signer,
// owner-in-zone, labels, the validity window at the caller's clock
// (VerifyWithRRSIG), and malformed wire shapes (checkWireShape). NSEC3
// hashing and validator policy never come near it. Two validators
// handed the same bytes cannot disagree on whether a P-256 signature
// checks, which is why sharing verdicts between simulated resolvers
// changes none of their answers.
//
// Memory is bounded by verifyMemoCap = 16,384 entries: a 32-byte key
// and a 16-byte error value per slot, at most ~112 bytes per entry with
// the map's load factor and doubling growth — under 2 MB at the cap. A
// resolver study holds a few hundred entries.
//
// A VerifyMemo is safe for concurrent use. Two goroutines that miss the
// same key both verify and store the same verdict. The map is never
// ranged over, so nothing observable depends on its order.
type VerifyMemo struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]error

	requests, hits *obs.Counter
}

// NewVerifyMemo creates an empty memo. reg (nil ok) receives
// resolver_sig_verifications_total — signature checks asked of the
// memo, fixed by what its validators are asked and the keys in play —
// and resolver_sig_verify_memo_hits_total — those answered without
// verifying, which also depends on scheduling and on which validators
// share the memo.
func NewVerifyMemo(reg *obs.Registry) *VerifyMemo {
	return &VerifyMemo{
		m: make(map[[sha256.Size]byte]error),
		requests: reg.Counter("resolver_sig_verifications_total",
			"RRSIG checks that reached the cryptographic step of a memoized verifier"),
		hits: reg.Counter("resolver_sig_verify_memo_hits_total",
			"RRSIG checks answered from the shared signature-verification memo"),
	}
}

// check is checkSignature through the memo; a nil m verifies every
// time.
func (m *VerifyMemo) check(alg dnswire.SecAlgorithm, pub, signature, msg []byte) error {
	digest := sha256.Sum256(msg)
	if m == nil {
		return checkSignature(alg, pub, signature, msg, digest)
	}
	m.requests.Inc()
	key := memoKey(alg, pub, signature, digest)
	m.mu.Lock()
	verdict, ok := m.m[key]
	m.mu.Unlock()
	if ok {
		m.hits.Inc()
		return verdict
	}
	verdict = checkSignature(alg, pub, signature, msg, digest)
	m.mu.Lock()
	if len(m.m) >= verifyMemoCap {
		m.m = make(map[[sha256.Size]byte]error)
	}
	m.m[key] = verdict
	m.mu.Unlock()
	return verdict
}

// memoKey digests everything checkSignature's verdict depends on.
// Lengths prefix the two variable fields so no two inputs share a
// preimage; the buffer stays on the stack for every algorithm but RSA.
func memoKey(alg dnswire.SecAlgorithm, pub, signature []byte, digest [sha256.Size]byte) [sha256.Size]byte {
	var stack [1 + 2 + 64 + 2 + 64 + sha256.Size]byte
	b := append(stack[:0], byte(alg))
	b = binary.BigEndian.AppendUint16(b, uint16(len(pub)))
	b = append(b, pub...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(signature)))
	b = append(b, signature...)
	b = append(b, digest[:]...)
	return sha256.Sum256(b)
}
