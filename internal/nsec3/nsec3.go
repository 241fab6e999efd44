// Package nsec3 implements RFC 5155 hashed authenticated denial of
// existence: the iterated salted SHA-1 owner-name hash, Base32hex owner
// labels, NSEC3 chain construction over a zone's names, and synthesis
// and verification of the three proof shapes (NXDOMAIN via closest
// encloser, NODATA, and wildcard expansion).
//
// The per-zone parameters — hash algorithm, additional iterations, and
// salt — are exactly the knobs whose real-world settings the paper
// "Zeros Are Heroes" measures, and which RFC 9276 constrains (0
// additional iterations, empty salt).
//
// # What the chain indexes
//
// RFC 9276 counts the iteration cost on both sides of a negative
// answer. The two sides are kept apart here.
//
// The authoritative side (Chain) already hashed every owner name to
// build and sort the chain, so it keeps the result instead of
// recomputing it per query: BuildChain records which record belongs to
// each original owner name, resolves every record's resource record
// (owner name, TTL, boxed RDATA) once, and gives each record one slot
// that remembers where the wildcard child of that record's name falls
// in the chain. The slot is filled by the first ProveNXDOMAIN whose
// closest encloser is that record — an atomic store of a value that is
// a function of the zone alone, so concurrent fillers agree. Chain.locate
// is the one lookup: an original owner name hits the index, any other
// name takes the miss branch and is hashed and searched for. A warm
// NXDOMAIN proof is therefore one iterated hash — the next-closer
// name's, the only one of the three that depends on the query. That
// hash is computed on every query and never remembered: nothing in a
// Chain is keyed by what a client sends, and its state is bounded by
// its length. A Proof points into Chain.Records; those records, and the
// slices they share (one hash array, one salt, each NextHashedOwner
// aliasing its successor's OwnerHash), are read-only.
//
// The validating side (ResponseSet) has no index and no memo: it hashes
// every candidate closest encloser, the next-closer name and the
// wildcard on every verification. That cost is what the paper's Figure 3
// and CVE-2023-50868 are about, and it is never shared or skipped.
package nsec3

import (
	"bytes"
	"crypto/sha1"
	"encoding/base32"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/dnswire"
)

// HashLen is the SHA-1 output length: every NSEC3 hash field is 20 octets.
const HashLen = sha1.Size

// MaxSaltLen is the wire-format limit on salt length (one-octet length).
const MaxSaltLen = 255

// RFC5155MaxIterations is the iteration cap RFC 5155 §10.3 imposed for
// the largest key sizes; the it-2501 testbed subdomain exceeds it.
const RFC5155MaxIterations = 2500

// Params are the per-zone NSEC3 hash parameters (RFC 5155 §3.1.1–3.1.5,
// §4.1). Iterations counts *additional* applications of the hash beyond
// the first, matching the protocol field and the paper's terminology.
type Params struct {
	Alg        dnswire.NSEC3HashAlg
	Iterations uint16
	Salt       []byte
}

// RFC9276Compliant reports whether the parameters satisfy the two
// mandatory knob settings of RFC 9276: zero additional iterations
// (Item 2, MUST) and an empty salt (Item 3, SHOULD NOT use a salt).
func (p Params) RFC9276Compliant() bool {
	return p.Iterations == 0 && len(p.Salt) == 0
}

// String renders the parameters like the NSEC3PARAM presentation form.
func (p Params) String() string {
	salt := "-"
	if len(p.Salt) > 0 {
		salt = fmt.Sprintf("%X", p.Salt)
	}
	return fmt.Sprintf("%d 0 %d %s", uint8(p.Alg), p.Iterations, salt)
}

// ErrUnknownAlg is returned for any hash algorithm other than SHA-1,
// the only value IANA ever assigned.
var ErrUnknownAlg = errors.New("nsec3: unknown hash algorithm")

// Hash computes the iterated salted hash of name (RFC 5155 §5):
//
//	IH(salt, x, 0) = H(x || salt)
//	IH(salt, x, k) = H(IH(salt, x, k-1) || salt)
//
// applied to the canonical (lowercase, uncompressed) wire form of name,
// with k = p.Iterations. The per-iteration rehash over a 20-octet
// digest plus salt is exactly the CPU cost CVE-2023-50868 weaponizes.
// Every one of the k rehashes is computed on every call; nothing is
// remembered between calls. Where the CPU has the SHA-1 instructions
// and digest ‖ salt fits one block, each rehash is one compression on
// them (rehashOneBlock), which makes a rehash cheaper, not rarer.
func Hash(name dnswire.Name, p Params) ([]byte, error) {
	out := make([]byte, 0, HashLen)
	return AppendHash(out, name, p)
}

// AppendHash appends the 20-octet iterated salted hash of name to dst
// and returns the extended slice. All intermediate state lives in a
// stack scratch buffer, so with a dst of sufficient capacity the call
// performs zero heap allocations — this is the form the denial-proof
// serving path uses per query.
func AppendHash(dst []byte, name dnswire.Name, p Params) ([]byte, error) {
	if p.Alg != dnswire.NSEC3HashSHA1 {
		return nil, ErrUnknownAlg
	}
	if len(p.Salt) > MaxSaltLen {
		// A salt beyond the one-octet wire limit cannot appear in a
		// valid NSEC3PARAM; accept it anyway (robustness principle) on
		// a heap-allocating cold path.
		return appendHashBigSalt(dst, name, p)
	}
	// Big enough for wire-form name + salt (first round) and for
	// digest + salt (every additional iteration).
	var scratch [dnswire.MaxNameWireLen + MaxSaltLen]byte
	buf := scratch[:0]
	buf = name.AppendWire(buf)
	buf = append(buf, p.Salt...)
	digest := sha1.Sum(buf)
	if useSHA1Block && p.Iterations > 0 && len(p.Salt) <= maxOneBlockSalt {
		rehashOneBlock(&digest, p)
		return append(dst, digest[:]...), nil
	}
	for i := uint16(0); i < p.Iterations; i++ {
		buf = append(buf[:0], digest[:]...)
		buf = append(buf, p.Salt...)
		digest = sha1.Sum(buf)
	}
	return append(dst, digest[:]...), nil
}

// useSHA1Block selects rehashOneBlock for the additional iterations. It
// is set once, from a CPUID probe, when the package initializes; tests
// switch it off to cover the crypto/sha1 loop on any CPU.
var useSHA1Block = haveSHA1Block()

// maxOneBlockSalt is the longest salt for which a rehash input — the
// 20-octet digest and the salt, then SHA-1's 0x80 pad octet and 8-octet
// bit length — fits one 64-octet block.
const maxOneBlockSalt = 64 - HashLen - 1 - 8

// sha1IV is SHA-1's initial state (FIPS 180-4 §5.3.1).
var sha1IV = [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}

// rehashOneBlock applies p.Iterations additional rounds to digest, one
// sha1block compression each. A round's input, digest ‖ salt padded, is
// one block whose words 5–15 (salt, padding, length) are the same every
// round, so the block is laid out once and each round only copies the
// previous digest's five words into words 0–4. Every iteration is
// computed; what changes is the cost of one — no per-call crypto/sha1
// setup, and the compression runs on the SHA instructions.
func rehashOneBlock(digest *[HashLen]byte, p Params) {
	var pad [64]byte
	n := HashLen + copy(pad[HashLen:], p.Salt)
	pad[n] = 0x80
	binary.BigEndian.PutUint64(pad[56:], uint64(n)*8)
	var block [16]uint32
	for i := 5; i < len(block); i++ {
		block[i] = binary.BigEndian.Uint32(pad[4*i:])
	}
	var state [5]uint32
	for i := range state {
		state[i] = binary.BigEndian.Uint32(digest[4*i:])
	}
	for i := uint16(0); i < p.Iterations; i++ {
		copy(block[:5], state[:])
		state = sha1IV
		sha1block(&state, &block)
	}
	for i, w := range state {
		binary.BigEndian.PutUint32(digest[4*i:], w)
	}
}

// appendHashBigSalt is AppendHash for salts too long for the stack
// scratch buffer.
func appendHashBigSalt(dst []byte, name dnswire.Name, p Params) ([]byte, error) {
	buf := make([]byte, 0, name.WireLen()+len(p.Salt))
	buf = name.AppendWire(buf)
	buf = append(buf, p.Salt...)
	digest := sha1.Sum(buf)
	iter := make([]byte, 0, HashLen+len(p.Salt))
	for i := uint16(0); i < p.Iterations; i++ {
		iter = append(iter[:0], digest[:]...)
		iter = append(iter, p.Salt...)
		digest = sha1.Sum(iter)
	}
	return append(dst, digest[:]...), nil
}

// base32Hex is unpadded Base32 with the "extended hex" alphabet
// (RFC 5155 §1.3), the encoding of NSEC3 owner labels; base32HexLower
// is the same alphabet in the lower case normalized names use.
var (
	base32Hex      = base32.HexEncoding.WithPadding(base32.NoPadding)
	base32HexLower = base32.NewEncoding("0123456789abcdefghijklmnopqrstuv").WithPadding(base32.NoPadding)
)

// EncodeHash renders a raw hash as the lowercase Base32hex owner label.
func EncodeHash(h []byte) string {
	return base32HexLower.EncodeToString(h)
}

// DecodeHash parses a Base32hex owner label back to the raw hash.
func DecodeHash(label string) ([]byte, error) {
	return base32Hex.DecodeString(strings.ToUpper(label))
}

// OwnerName returns the NSEC3 owner name for the hash of name in zone:
// base32hex(hash) prepended to the zone apex.
func OwnerName(name, zone dnswire.Name, p Params) (dnswire.Name, error) {
	h, err := Hash(name, p)
	if err != nil {
		return "", err
	}
	return zone.Child(EncodeHash(h))
}

// HashFromOwner extracts the raw hash encoded in an NSEC3 RR's owner
// name (its leftmost label).
func HashFromOwner(owner dnswire.Name) ([]byte, error) {
	labels := owner.Labels()
	if len(labels) == 0 {
		return nil, fmt.Errorf("nsec3: owner name %q has no hash label", owner)
	}
	h, err := DecodeHash(labels[0])
	if err != nil {
		return nil, fmt.Errorf("nsec3: owner label %q: %w", labels[0], err)
	}
	if len(h) != HashLen {
		return nil, fmt.Errorf("nsec3: owner hash is %d octets, want %d", len(h), HashLen)
	}
	return h, nil
}

// Covers reports whether the circular span (ownerHash, nextHash)
// strictly contains h (RFC 5155 §3.1.7 semantics). The last NSEC3 in a
// chain wraps: its next hash is the first owner hash, and its span
// covers everything greater than the owner or smaller than the next.
func Covers(ownerHash, nextHash, h []byte) bool {
	oc := bytes.Compare(ownerHash, h)
	nc := bytes.Compare(h, nextHash)
	if bytes.Compare(ownerHash, nextHash) < 0 {
		return oc < 0 && nc < 0
	}
	// Wrapped span (or single-record chain where owner == next,
	// which covers the whole space except the owner itself).
	return oc < 0 || nc < 0
}

// Record pairs a hashed owner with its NSEC3 payload inside one zone's
// chain.
//
// The records of a Chain share their memory and are immutable once
// BuildChain returns: every OwnerHash is a window into one backing
// array, RR.Salt is one slice for the whole chain, and
// RR.NextHashedOwner is the successor's OwnerHash, not a copy. Proofs,
// answers and AXFR streams alias them for the life of the zone.
type Record struct {
	OwnerHash []byte // 20 raw octets decoded from the owner label
	RR        dnswire.NSEC3

	// Index and Full are set on a Chain's records only; a ResponseSet
	// leaves them zero. Index is the record's position in
	// Chain.Records. Full is the whole resource record, resolved once
	// when the chain was built — the owner name base32hex(OwnerHash).zone,
	// class IN, the TTL BuildChain was given, and RR boxed as RDATA —
	// so that serving a denial constructs nothing.
	Index int
	Full  dnswire.RR
}

// Chain is a complete NSEC3 chain for one zone, sorted by owner hash.
// It can answer match/cover queries and synthesize denial proofs.
//
// Besides the sorted records the chain keeps what signing already
// knew and a server would otherwise recompute per negative answer:
// which record belongs to each original owner name (index), and, per
// record, where the wildcard child of that record's name falls (wild).
// Neither is keyed by anything a client sends: the index holds the
// zone's own names, and wild has one slot per record.
type Chain struct {
	Zone    dnswire.Name
	Params  Params
	Records []Record // sorted ascending by OwnerHash

	// index maps each original owner name to its position in Records.
	// The hash of an existing name is never computed twice.
	index map[dnswire.Name]int32
	// wild[i] remembers where "*.<original name of record i>" falls in
	// the chain: k+1 when record k covers it, -(k+1) when record k
	// matches it, zero until first asked. It is a function of the zone
	// alone, so concurrent fillers store the same value.
	wild []atomic.Int32
}

// ErrEmptyChain is returned when proof synthesis is attempted on a
// chain with no records.
var ErrEmptyChain = errors.New("nsec3: empty chain")

// BuildChain constructs the NSEC3 chain for the given original owner
// names and their type bitmaps. names maps each original name in the
// zone (apex, delegations, leaf owners, empty non-terminals) to the
// types present at it. optOut sets the Opt-Out flag on every record,
// and ttl is the TTL of the materialized NSEC3 RRs (conventionally the
// SOA minimum).
//
// Hashing each owner once and sorting is the memoized strategy
// benchmarked against naive per-proof hashing in the ablation benches.
func BuildChain(zone dnswire.Name, p Params, names map[dnswire.Name]dnswire.TypeBitmap, optOut bool, ttl uint32) (*Chain, error) {
	if len(names) == 0 {
		return nil, ErrEmptyChain
	}
	type hashed struct {
		name  dnswire.Name
		types dnswire.TypeBitmap
		hash  []byte
	}
	// One backing array for every owner hash; each record's window is
	// capped so an append through it cannot reach its neighbour.
	hashes := make([]byte, 0, len(names)*HashLen)
	byHash := make([]hashed, 0, len(names))
	for name, types := range names {
		var err error
		off := len(hashes)
		if hashes, err = AppendHash(hashes, name, p); err != nil {
			return nil, err
		}
		byHash = append(byHash, hashed{name, types, hashes[off:len(hashes):len(hashes)]})
	}
	sort.Slice(byHash, func(i, j int) bool {
		return bytes.Compare(byHash[i].hash, byHash[j].hash) < 0
	})
	// Reject hash collisions between distinct owners: the chain would
	// be ambiguous (astronomically unlikely with SHA-1, but data from
	// a parser could be adversarial).
	for i := 1; i < len(byHash); i++ {
		if bytes.Equal(byHash[i-1].hash, byHash[i].hash) {
			return nil, fmt.Errorf("nsec3: hash collision in zone %s", zone)
		}
	}
	c := &Chain{
		Zone: zone, Params: p,
		Records: make([]Record, len(byHash)),
		index:   make(map[dnswire.Name]int32, len(byHash)),
		wild:    make([]atomic.Int32, len(byHash)),
	}
	var flags uint8
	if optOut {
		flags |= dnswire.NSEC3FlagOptOut
	}
	salt := append([]byte(nil), p.Salt...)
	for i, h := range byHash {
		owner, err := ownerName(zone, h.hash)
		if err != nil {
			return nil, err
		}
		rr := dnswire.NSEC3{
			HashAlg:    p.Alg,
			Flags:      flags,
			Iterations: p.Iterations,
			Salt:       salt,
			// Next-hashed-owner pointers link the chain circularly.
			NextHashedOwner: byHash[(i+1)%len(byHash)].hash,
			Types:           h.types,
		}
		c.Records[i] = Record{
			OwnerHash: h.hash, RR: rr, Index: i,
			Full: dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: ttl, Data: rr},
		}
		c.index[h.name] = int32(i)
	}
	return c, nil
}

// ownerName renders hash as the NSEC3 owner name in zone. It fails
// only for a zone name so close to the 255-octet limit that a 32-octet
// label no longer fits.
func ownerName(zone dnswire.Name, hash []byte) (dnswire.Name, error) {
	var label [32]byte // base32 of HashLen octets, unpadded
	base32HexLower.Encode(label[:], hash)
	return zone.Child(string(label[:]))
}

// find returns the index of the record whose owner hash matches h
// exactly (match=true), or the index of the record whose span covers h
// (match=false).
func (c *Chain) find(h []byte) (idx int, match bool) {
	n := len(c.Records)
	i := sort.Search(n, func(i int) bool {
		return bytes.Compare(c.Records[i].OwnerHash, h) >= 0
	})
	if i < n && bytes.Equal(c.Records[i].OwnerHash, h) {
		return i, true
	}
	// Predecessor covers h; index -1 wraps to the last record.
	return (i - 1 + n) % n, false
}

// locate is the chain's one lookup: the index of the record matching
// name (match=true) or of the record whose span covers it. An original
// owner name is answered from the index with no hashing; the miss
// branch hashes name and searches, which is what the same name would
// have got before the index existed — a name that is not an original
// owner can still match (a hash collision) or, far more likely, be
// covered.
func (c *Chain) locate(name dnswire.Name) (idx int, match bool, err error) {
	if len(c.Records) == 0 {
		return 0, false, ErrEmptyChain
	}
	if i, ok := c.index[name]; ok {
		return int(i), true, nil
	}
	var hb [HashLen]byte
	h, err := AppendHash(hb[:0], name, c.Params)
	if err != nil {
		return 0, false, err
	}
	idx, match = c.find(h)
	return idx, match, nil
}

// Match returns the record whose owner hash is exactly the hash of
// name, if any. The record is the chain's own: read-only.
func (c *Chain) Match(name dnswire.Name) (*Record, bool, error) {
	i, match, err := c.locate(name)
	if err != nil || !match {
		return nil, false, err
	}
	return &c.Records[i], true, nil
}

// Cover returns the record whose span covers the hash of name. When the
// hash matches a record exactly there is no covering record and ok is
// false. The record is the chain's own: read-only.
func (c *Chain) Cover(name dnswire.Name) (*Record, bool, error) {
	i, match, err := c.locate(name)
	if err != nil || match {
		return nil, false, err
	}
	return &c.Records[i], true, nil
}

// locateWildcard is locate("*." + ce) for a closest encloser ce that
// matched record i. The answer depends on the zone alone, so it is
// computed — one iterated hash, unless the wildcard exists — the first
// time record i is a closest encloser and read from the record's slot
// after that. The slot belongs to the record's original name: a ce that
// reached record i by hash only (the theoretical collision) is located
// afresh.
func (c *Chain) locateWildcard(i int, ce dnswire.Name) (idx int, match bool, err error) {
	own := false
	if j, ok := c.index[ce]; ok && int(j) == i {
		own = true
		if v := c.wild[i].Load(); v > 0 {
			return int(v - 1), false, nil
		} else if v < 0 {
			return int(-v - 1), true, nil
		}
	}
	idx, match, err = c.locate(ce.Wildcard())
	if err == nil && own {
		v := int32(idx + 1)
		if match {
			v = -v
		}
		c.wild[i].Store(v)
	}
	return idx, match, err
}

// ByOwner returns the record owned by an NSEC3 owner name
// (base32hex(hash).zone), if the chain has one.
func (c *Chain) ByOwner(owner dnswire.Name) (*Record, bool) {
	if len(c.Records) == 0 || owner.IsRoot() || owner.Parent() != c.Zone {
		return nil, false
	}
	h, err := HashFromOwner(owner)
	if err != nil {
		return nil, false
	}
	i, match := c.find(h)
	if !match {
		return nil, false
	}
	return &c.Records[i], true
}

// RRFor returns r, one of c's records, as a resource record with the
// given TTL.
func (c *Chain) RRFor(r Record, ttl uint32) dnswire.RR {
	rr := r.Full
	rr.TTL = ttl
	return rr
}
