package resolver

import (
	"bytes"
	"sync"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
)

// This file implements RFC 8198 aggressive use of DNSSEC-validated
// cache for NSEC3: validated NSEC3 records cached from earlier negative
// answers let the resolver synthesize NXDOMAIN responses for other
// names falling in the same hash spans, without asking the
// authoritative server.
//
// It is both a performance feature and a paper-relevant observation:
// synthesis still pays one iterated hash per closest-encloser
// candidate, so a zone with many additional iterations makes even
// cache hits expensive — another face of the cost RFC 9276 Item 2
// eliminates. BenchmarkAblationAggressiveNSEC quantifies the trade.

// aggressiveZone caches the validated denial material of one zone.
type aggressiveZone struct {
	params nsec3.Params
	// records are validated NSEC3 records, unordered (lookups are
	// linear; caches hold few spans per zone in practice).
	records []nsec3.Record
}

// aggressiveCache maps zone apex → cached spans. mu makes store's
// read-modify-write of a zone's records atomic against synthesize.
type aggressiveCache struct {
	mu    sync.Mutex
	zones *ttlCache[dnswire.Name, *aggressiveZone]
}

// store records the validated NSEC3 set of a Secure negative response.
func (c *aggressiveCache) store(apex dnswire.Name, set *nsec3.ResponseSet, now, ttl uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	z, ok := c.zones.get(apex, now)
	if !ok || z.params.Iterations != set.Params.Iterations ||
		!bytes.Equal(z.params.Salt, set.Params.Salt) {
		z = &aggressiveZone{params: set.Params}
		c.zones.put(apex, z, now, ttl)
	}
	for _, rec := range set.Records {
		dup := false
		for _, have := range z.records {
			if bytes.Equal(have.OwnerHash, rec.OwnerHash) {
				dup = true
				break
			}
		}
		if !dup {
			z.records = append(z.records, rec)
		}
	}
	if len(z.records) > 512 {
		z.records = z.records[len(z.records)-512:]
	}
}

// synthesize attempts to prove qname's non-existence from cached spans
// of any cached ancestor zone: a matching closest encloser plus covered
// next-closer and wildcard (RFC 8198 §5.1 applied to NSEC3). It
// returns the zone apex for reporting.
func (c *aggressiveCache) synthesize(qname dnswire.Name, now uint32) (dnswire.Name, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for apex := qname.Parent(); ; apex = apex.Parent() {
		if z, ok := c.zones.get(apex, now); ok {
			set := &nsec3.ResponseSet{Zone: apex, Params: z.params, Records: z.records}
			if _, _, err := set.VerifyNXDOMAIN(qname); err == nil {
				return apex, true
			}
		}
		if apex.IsRoot() {
			return "", false
		}
	}
}

// tryAggressive consults the cache before any network activity; on a
// hit it fabricates the Secure NXDOMAIN result.
func (r *Resolver) tryAggressive(qname dnswire.Name) (*Result, bool) {
	if r.aggressive == nil || !r.validating() {
		return nil, false
	}
	if _, ok := r.aggressive.synthesize(qname, r.cfg.Now()); !ok {
		r.met.aggrMisses.Inc()
		return nil, false
	}
	r.met.aggrHits.Inc()
	res := &Result{
		RCode:  dnswire.RCodeNXDomain,
		Status: StatusSecure,
		AD:     !r.cfg.Policy.NoNegativeAD,
	}
	return res, true
}

// learnAggressive feeds a validated Secure negative answer's NSEC3
// records into the cache.
func (r *Resolver) learnAggressive(msg *dnswire.Message) {
	if r.aggressive == nil {
		return
	}
	set, err := nsec3.ExtractResponseSet(msg.Authority)
	if err != nil {
		return
	}
	r.aggressive.store(set.Zone, set, r.cfg.Now(), r.ttlFor(msg))
}
