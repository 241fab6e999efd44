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
// The key is SHA-256 over the algorithm, the length-prefixed DNSKEY
// public key and RRSIG signature, and the signed data itself (RRSIG
// RDATA minus signature ‖ canonical RRset), so it covers every byte the
// verdict depends on and nothing else: change one bit of the signature,
// any RDATA, the owner, OrigTTL or the key and it is a different entry.
// A check hashes once: the key is all a hit computes, built with the
// signed data in one stack buffer, so a hit allocates nothing
// (TestVerifyMemoHitAllocs); SHA-256 of the signed data alone is
// computed only on a miss, for checkSignature.
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
// and a 16-byte error value per slot; a full table holds 1.8 MB of
// heap (~110 bytes per entry with the map's load factor and growth,
// measured on Go 1.24, amd64) — under 2 MB at the cap. A resolver study
// holds a few hundred entries.
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
// time. keyed is appendMemoPrefix's prefix followed by msg, the signed
// octets: its SHA-256 is the memo key, and msg is hashed on its own
// only on a miss, by checkSignature.
func (m *VerifyMemo) check(alg dnswire.SecAlgorithm, pub, signature, keyed, msg []byte) error {
	if m == nil {
		return checkSignature(alg, pub, signature, msg)
	}
	m.requests.Inc()
	key := sha256.Sum256(keyed)
	m.mu.Lock()
	verdict, ok := m.m[key]
	m.mu.Unlock()
	if ok {
		m.hits.Inc()
		return verdict
	}
	verdict = checkSignature(alg, pub, signature, msg)
	m.mu.Lock()
	if len(m.m) >= verifyMemoCap {
		m.m = make(map[[sha256.Size]byte]error)
	}
	m.m[key] = verdict
	m.mu.Unlock()
	return verdict
}

// memoPrefixCap holds appendMemoPrefix's octets for ECDSA P-256 and
// Ed25519 keys and signatures.
const memoPrefixCap = 1 + 2 + 64 + 2 + 64

// appendMemoPrefix appends what the memo key covers ahead of the signed
// octets: the algorithm, then the public key and the signature, each
// behind its length. The signed octets go last, so no two inputs share
// a preimage.
func appendMemoPrefix(dst []byte, alg dnswire.SecAlgorithm, pub, signature []byte) []byte {
	dst = append(dst, byte(alg))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(pub)))
	dst = append(dst, pub...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(signature)))
	return append(dst, signature...)
}
