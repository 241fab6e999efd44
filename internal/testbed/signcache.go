package testbed

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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
//  1. Per-apex key reuse: the first build of a zone generates its
//     KSK/ZSK; later builds of the same apex sign with the same keys.
//     Because a DS record depends only on the child's KSK, this makes
//     delegation DS sets stable across builds, which in turn makes
//     parents of unchanged children byte-identical.
//  2. Content-addressed signed zones: a zone whose apex, signing
//     config, keys, and full record set fingerprint-match a previous
//     build is served from cache without any signing at all — and
//     with every signature earlier builds' answers made: a cached
//     zone (zone.SignOnDemand) accumulates signatures across builds.
//
// Only zones marked Shared in their ZoneSpec consult the cache, so
// per-shard leaf zones don't accumulate (memory stays O(shared set)).
// The cache is safe for concurrent signers: lazy hierarchies sign
// shared zones from query-handling goroutines, so sign runs as a
// singleflight — the mutex only guards the maps, never a Sign call,
// and concurrent requests for the same content block on one signer
// while different zones sign in parallel.
type SignCache struct {
	mu       sync.Mutex
	keys     map[dnswire.Name]cachedKeys
	zones    map[[sha256.Size]byte]*zone.Signed
	inflight map[[sha256.Size]byte]*signFlight
}

type cachedKeys struct {
	ksk, zsk *dnssec.KeyPair
}

// signFlight is one in-progress signing: waiters block on done and
// read sz/err afterwards (written before close, so reads are ordered).
type signFlight struct {
	done chan struct{}
	sz   *zone.Signed
	err  error
}

// NewSignCache creates an empty cache.
func NewSignCache() *SignCache {
	return &SignCache{
		keys:     make(map[dnswire.Name]cachedKeys),
		zones:    make(map[[sha256.Size]byte]*zone.Signed),
		inflight: make(map[[sha256.Size]byte]*signFlight),
	}
}

// keysFor returns the cached key pair for apex, generating (and
// caching) one when absent or when the algorithm changed. The builder
// calls this at plan time for every Shared zone: a delegation's DS
// depends only on the child's KSK, so keys must exist at build time
// while signing itself can wait for the first query.
func (c *SignCache) keysFor(apex dnswire.Name, alg dnswire.SecAlgorithm) (cachedKeys, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys, ok := c.keys[apex]
	if ok && keys.ksk.DNSKEY().Algorithm == alg {
		return keys, nil
	}
	var err error
	if keys.ksk, err = dnssec.GenerateKey(alg, true, nil); err != nil {
		return cachedKeys{}, err
	}
	if keys.zsk, err = dnssec.GenerateKey(alg, false, nil); err != nil {
		return cachedKeys{}, err
	}
	c.keys[apex] = keys
	return keys, nil
}

// signAlg resolves the effective algorithm of a config (mirroring
// zone.Sign's default).
func signAlg(cfg zone.SignConfig) dnswire.SecAlgorithm {
	if cfg.Algorithm == 0 {
		return dnswire.AlgECDSAP256SHA256
	}
	return cfg.Algorithm
}

// sign signs z under cfg, reusing cached keys for the apex and a
// cached signed zone when the content fingerprint matches a previous
// build. The returned hit reports whether signing was skipped (either
// a cache hit or a wait on another goroutine's in-flight signing of
// the same content).
//
//repro:ctxexempt the singleflight wait is bounded by the in-flight signer, which is CPU-bound ECDSA over a finite zone, not I/O
func (c *SignCache) sign(z *zone.Zone, cfg zone.SignConfig) (*zone.Signed, bool, error) {
	keys, err := c.keysFor(z.Apex, signAlg(cfg))
	if err != nil {
		return nil, false, err
	}
	cfg.KSK, cfg.ZSK = keys.ksk, keys.zsk

	// Fingerprint before Sign: signing mutates the raw zone.
	fp := fingerprint(z, cfg)

	c.mu.Lock()
	if s, ok := c.zones[fp]; ok {
		c.mu.Unlock()
		return s, true, nil
	}
	if fl, ok := c.inflight[fp]; ok {
		// Another goroutine is signing identical content right now:
		// wait for it rather than signing twice.
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, false, fl.err
		}
		return fl.sz, true, nil
	}
	fl := &signFlight{done: make(chan struct{})}
	c.inflight[fp] = fl
	c.mu.Unlock()

	// Sign outside the lock so distinct zones sign in parallel.
	fl.sz, fl.err = z.SignOnDemand(cfg)

	c.mu.Lock()
	delete(c.inflight, fp)
	if fl.err == nil {
		c.zones[fp] = fl.sz
	}
	c.mu.Unlock()
	close(fl.done)
	if fl.err != nil {
		return nil, false, fl.err
	}
	return fl.sz, false, nil
}

// fingerprint hashes everything that determines a signed zone's bytes:
// the apex, the full signing config (keys included — they decide every
// RRSIG and the DS), and the canonical record set of the raw zone.
// It must run before Sign, which mutates the raw zone.
func fingerprint(z *zone.Zone, cfg zone.SignConfig) [sha256.Size]byte {
	h := sha256.New()
	put := func(b []byte) {
		_, _ = h.Write(b) // sha256.Hash.Write never fails (hash.Hash contract)
	}
	write := func(s string) {
		put([]byte(s))
		put([]byte{0}) // NUL separator so "a"+"bc" != "ab"+"c"
	}
	write(string(z.Apex))
	write(fmt.Sprintf("alg=%d denial=%d optout=%t expall=%t expden=%t",
		cfg.Algorithm, cfg.Denial, cfg.OptOut, cfg.ExpireAll, cfg.ExpireDenialSigs))
	write(fmt.Sprintf("n3=%d/%d/%x", cfg.NSEC3.Alg, cfg.NSEC3.Iterations, cfg.NSEC3.Salt))
	var window [8]byte
	binary.BigEndian.PutUint32(window[:4], cfg.Inception)
	binary.BigEndian.PutUint32(window[4:], cfg.Expiration)
	put(window[:])
	if cfg.KSK != nil {
		put(cfg.KSK.DNSKEY().PublicKey)
	}
	if cfg.ZSK != nil {
		put(cfg.ZSK.DNSKEY().PublicKey)
	}
	for _, rr := range z.Records() {
		write(rr.String())
	}
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp
}
