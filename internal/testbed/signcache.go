package testbed

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/zone"
)

// SignCache makes repeated hierarchy builds cheap by reusing signing
// work across them — the sharded survey's deployment loop re-creates
// the root, all 1,449 TLD zones, and every operator infrastructure
// zone once per shard, and without a cache re-signs each from scratch.
//
// The cache operates at two levels:
//
//  1. Per-apex key reuse: the first build of a zone mints its KSK/ZSK
//     (derived from the build's seed under WithSeed, generated
//     otherwise); later builds of the same apex sign with the same
//     keys, whatever their own seed — builds that share a cache share
//     a seed when their octets must be a function of it. Because a DS
//     record depends only on the child's KSK, this makes delegation DS
//     sets stable across builds, which in turn makes parents of
//     unchanged children byte-identical.
//  2. Content-addressed signed zones: a zone whose apex, signing
//     config, keys, and full record set fingerprint-match a previous
//     build is served from cache without any signing at all — and
//     with every signature earlier builds' answers made: a cached
//     zone (zone.SignOnDemand) accumulates signatures across builds.
//
// Only zones marked Shared in their ZoneSpec consult the cache, so
// per-shard leaf zones don't accumulate (memory stays O(shared set)).
// The cache is safe for concurrent signers: lazy hierarchies sign
// shared zones from query-handling goroutines. The mutex only guards
// the maps, never a sign or a key mint; both run outside it and store
// only if absent, so when two callers race on one apex or one content,
// the first to store wins and the other takes its result.
type SignCache struct {
	mu    sync.Mutex
	keys  map[dnswire.Name]cachedKeys
	zones map[[sha256.Size]byte]*zone.Signed
}

type cachedKeys struct {
	ksk, zsk *dnssec.KeyPair
}

// NewSignCache creates an empty cache.
func NewSignCache() *SignCache {
	return &SignCache{
		keys:  make(map[dnswire.Name]cachedKeys),
		zones: make(map[[sha256.Size]byte]*zone.Signed),
	}
}

// keysFor returns the cached key pair for apex, minting (and caching)
// one from secret (mintKey) when absent or when the algorithm changed.
// The builder calls this at plan time for every Shared zone: a
// delegation's DS depends only on the child's KSK, so keys must exist
// at build time while signing itself can wait for the first query. Keys
// are minted outside the lock, so plans mint in parallel; a pair is
// stored only if no caller stored one meanwhile, and a losing pair is
// dropped before anything is made from it — an apex has one key pair
// per cache.
func (c *SignCache) keysFor(apex dnswire.Name, alg dnswire.SecAlgorithm, secret []byte) (cachedKeys, error) {
	c.mu.Lock()
	keys, ok := c.keys[apex]
	c.mu.Unlock()
	if ok && keys.ksk.Algorithm == alg {
		return keys, nil
	}
	var err error
	if keys.ksk, err = mintKey(alg, true, secret, apex); err != nil {
		return cachedKeys{}, err
	}
	if keys.zsk, err = mintKey(alg, false, secret, apex); err != nil {
		return cachedKeys{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if won, ok := c.keys[apex]; ok && won.ksk.Algorithm == alg {
		return won, nil
	}
	c.keys[apex] = keys
	return keys, nil
}

// mintKey returns a zone key for apex in the given role: derived from
// secret (dnssec.DeriveKey) when there is one, from crypto/rand
// (dnssec.GenerateKey) when secret is nil.
func mintKey(alg dnswire.SecAlgorithm, ksk bool, secret []byte, apex dnswire.Name) (*dnssec.KeyPair, error) {
	if secret == nil {
		return dnssec.GenerateKey(alg, ksk)
	}
	return dnssec.DeriveKey(alg, ksk, secret, apex)
}

// signAlg resolves the effective algorithm of a config (mirroring
// zone.Sign's default).
func signAlg(cfg zone.SignConfig) dnswire.SecAlgorithm {
	if cfg.Algorithm == 0 {
		return dnswire.AlgECDSAP256SHA256
	}
	return cfg.Algorithm
}

// sign signs z under cfg, whose keys are the apex's cached pair
// (keysFor), reusing a cached signed zone when the content fingerprint
// matches a previous build. The returned hit reports whether this
// caller's signing was skipped or discarded: the content was cached, or
// another caller stored the same content while this one signed. Signing
// runs outside the lock, like keysFor's key mint, so distinct zones
// sign in parallel.
func (c *SignCache) sign(z *zone.Zone, cfg zone.SignConfig) (*zone.Signed, bool, error) {
	// Fingerprint before Sign: signing mutates the raw zone.
	fp := fingerprint(z, cfg)

	c.mu.Lock()
	s, ok := c.zones[fp]
	c.mu.Unlock()
	if ok {
		return s, true, nil
	}
	s, err := z.SignOnDemand(cfg)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if won, ok := c.zones[fp]; ok {
		return won, true, nil
	}
	c.zones[fp] = s
	return s, false, nil
}

// fingerprint hashes everything that determines a signed zone's bytes:
// the apex, the full signing config (keys included — they decide every
// RRSIG and the DS), and the canonical record set of the raw zone.
// It must run before Sign, which mutates the raw zone. Every field is
// written self-delimiting — fixed-width integers, length-prefixed salt
// and keys, each record in its uncompressed wire form (owner, type,
// class, TTL, RDLENGTH, RDATA) — so different inputs never hash the
// same octets. One buffer is reused for every record.
func fingerprint(z *zone.Zone, cfg zone.SignConfig) [sha256.Size]byte {
	h := sha256.New()
	buf := z.Apex.AppendWire(make([]byte, 0, 512))
	buf = append(buf, byte(cfg.Algorithm), byte(cfg.Denial), boolOctet(cfg.OptOut),
		boolOctet(cfg.ExpireAll), boolOctet(cfg.ExpireDenialSigs), byte(cfg.NSEC3.Alg))
	buf = binary.BigEndian.AppendUint16(buf, cfg.NSEC3.Iterations)
	buf = appendField(buf, cfg.NSEC3.Salt)
	buf = binary.BigEndian.AppendUint32(buf, cfg.Inception)
	buf = binary.BigEndian.AppendUint32(buf, cfg.Expiration)
	for _, k := range [...]*dnssec.KeyPair{cfg.KSK, cfg.ZSK} {
		var pub []byte
		if k != nil {
			pub = k.DNSKEY().PublicKey
		}
		buf = appendField(buf, pub)
	}
	_, _ = h.Write(buf) // sha256.Hash.Write never fails (hash.Hash contract)
	for _, rr := range z.Records() {
		buf = rr.Name.AppendWire(buf[:0])
		buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type()))
		buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
		buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
		rdlen := len(buf)
		buf = dnswire.AppendRData(append(buf, 0, 0), rr.Data)
		binary.BigEndian.PutUint16(buf[rdlen:], uint16(len(buf)-rdlen-2))
		_, _ = h.Write(buf) // never fails, as above
	}
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp
}

// appendField appends b behind its two-octet length.
func appendField(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b)))
	return append(dst, b...)
}

// boolOctet is 1 for true and 0 for false.
func boolOctet(b bool) byte {
	if b {
		return 1
	}
	return 0
}
