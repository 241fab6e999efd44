package resolver

import (
	"context"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/nsec3"
)

// This file is the validation engine: chain-of-trust establishment
// (zoneKeys), RRset signature checking (verifyGroup), and
// denial-of-existence verification with the NSEC3 iteration policy
// applied (validateDenial) — the code path whose behaviour Figure 3 of
// the paper measures across resolvers.

// validateResponse classifies a response from zone fallbackApex.
// limitHit reports that the NSEC3 iteration policy (not a crypto
// failure) determined the outcome, so the caller can attach EDE.
func (r *Resolver) validateResponse(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, msg *dnswire.Message, fallbackApex dnswire.Name, depth int) (SecurityStatus, bool) {
	apex := responseZone(msg, fallbackApex)
	zt := r.zoneKeys(ctx, apex, depth)
	if zt.status != StatusSecure {
		return zt.status, false
	}
	if len(msg.Answers) > 0 {
		return r.validatePositive(qname, msg, apex, zt.keys)
	}
	return r.validateNegative(qname, qtype, msg, apex, zt.keys)
}

// responseZone infers the answering zone: the SOA owner for negative
// answers, the RRSIG signer for positive ones, else the iteration apex.
func responseZone(msg *dnswire.Message, fallback dnswire.Name) dnswire.Name {
	for _, rr := range msg.Answers {
		if sig, ok := rr.Data.(dnswire.RRSIG); ok {
			return sig.SignerName
		}
	}
	for _, rr := range msg.Authority {
		if rr.Type() == dnswire.TypeSOA {
			return rr.Name
		}
	}
	return fallback
}

// validatePositive checks every answer RRset signature; wildcard
// expansions additionally need a denial proof, where the iteration
// policy applies.
func (r *Resolver) validatePositive(qname dnswire.Name, msg *dnswire.Message, apex dnswire.Name, keys []dnswire.DNSKEY) (SecurityStatus, bool) {
	answers := groupRRsets(msg.Answers)
	if len(answers) == 0 {
		return StatusBogus, false
	}
	wildcardLabels := -1
	for _, g := range answers {
		if !r.verifyGroup(g, apex, keys) {
			return StatusBogus, false
		}
		for _, sigRR := range g.sigs {
			sig := sigRR.Data.(dnswire.RRSIG)
			if int(sig.Labels) < g.rrs[0].Name.CountLabels() {
				wildcardLabels = int(sig.Labels)
			}
		}
	}
	if wildcardLabels < 0 {
		return StatusSecure, false
	}
	// Wildcard answer: the proof that qname itself does not exist must
	// accompany it (RFC 5155 §8.8).
	return r.validateDenial(qname, msg, groupRRsets(msg.Authority), apex, keys, func(set3 *nsec3.ResponseSet) SecurityStatus {
		if set3.VerifyWildcardAnswer(qname, wildcardLabels) != nil {
			return StatusBogus
		}
		return StatusSecure
	})
}

// validateNegative checks NXDOMAIN and NODATA responses: the SOA RRSIG
// plus the denial proof.
func (r *Resolver) validateNegative(qname dnswire.Name, qtype dnswire.Type, msg *dnswire.Message, apex dnswire.Name, keys []dnswire.DNSKEY) (SecurityStatus, bool) {
	authority := groupRRsets(msg.Authority)
	// The SOA RRset must be signed.
	if !r.verifyType(authority, dnswire.TypeSOA, apex, keys) {
		return StatusBogus, false
	}
	return r.validateDenial(qname, msg, authority, apex, keys, func(set3 *nsec3.ResponseSet) SecurityStatus {
		if msg.Header.RCode == dnswire.RCodeNXDomain {
			if _, _, err := set3.VerifyNXDOMAIN(qname); err != nil {
				return StatusBogus
			}
		} else if set3.VerifyNODATA(qname, qtype) != nil {
			// An insecure delegation excluded from an opt-out chain
			// answers DS queries with the RFC 5155 §8.6 proof: closest
			// provable encloser matched, next closer covered by an
			// Opt-Out span. That proves an unsigned delegation —
			// insecure, not bogus.
			if _, err := set3.VerifyNoDS(qname); err == nil {
				return StatusInsecure
			}
			return StatusBogus
		}
		return StatusSecure
	})
}

// validateDenial is the one iteration-policy gate: every denial proof
// (negative answer or wildcard expansion) passes through it. authority
// is msg.Authority grouped; prove runs the proof-specific NSEC3 check
// once the policy admits full validation. limitHit is as for
// validateResponse.
func (r *Resolver) validateDenial(qname dnswire.Name, msg *dnswire.Message, authority []rrGroup, apex dnswire.Name, keys []dnswire.DNSKEY, prove func(*nsec3.ResponseSet) SecurityStatus) (SecurityStatus, bool) {
	set3, err := nsec3.ExtractResponseSet(msg.Authority)
	if err != nil {
		// No NSEC3 records: try NSEC, else the zone failed to prove
		// the denial.
		if r.verifyNSECDenialOfName(qname, authority, apex, keys) {
			return StatusSecure, false
		}
		return StatusBogus, false
	}
	iterations := int(set3.Params.Iterations)
	verdict, limitHit := r.applyIterationPolicy(iterations)
	switch verdict {
	case verdictServfail:
		// Item 8: SERVFAIL above the limit.
		return StatusBogus, true
	case verdictInsecure:
		// Item 6: insecure above the limit. Item 7: a compliant
		// validator still authenticates the NSEC3 records before
		// trusting their iteration field.
		if r.cfg.Policy.VerifyInsecureNSEC3 && !r.verifyType(authority, dnswire.TypeNSEC3, apex, keys) {
			return StatusBogus, false
		}
		return StatusInsecure, limitHit
	}
	// Within limits: full validation. The denial proof is about to be
	// re-hashed, so charge its iteration cost to the work counter.
	r.countNSEC3Work(qname, set3.Zone, iterations)
	if !r.verifyType(authority, dnswire.TypeNSEC3, apex, keys) {
		return StatusBogus, false
	}
	return prove(set3), false
}

// policyVerdict is the outcome of the iteration limit check.
type policyVerdict int

const (
	verdictValidate policyVerdict = iota // within limits: validate fully
	verdictInsecure                      // Item 6 region
	verdictServfail                      // Item 8 region
)

// applyIterationPolicy maps an NSEC3 iteration count to the resolver's
// configured behaviour. limitHit is true when a limit (rather than the
// default validate path) decided.
func (r *Resolver) applyIterationPolicy(iterations int) (policyVerdict, bool) {
	p := r.cfg.Policy
	if p.ServfailLimit != NoLimit && iterations > p.ServfailLimit {
		return verdictServfail, true
	}
	if p.InsecureLimit != NoLimit && iterations > p.InsecureLimit {
		return verdictInsecure, true
	}
	// RFC 5155 §10.3 always applies: beyond 2500 iterations even an
	// unlimited resolver treats the proof as insecure.
	if iterations > nsec3.RFC5155MaxIterations {
		return verdictInsecure, false
	}
	return verdictValidate, false
}

// rrGroup is an RRset with its covering signatures.
type rrGroup struct {
	rrs  []dnswire.RR
	sigs []dnswire.RR
}

// groupRRsets splits a section into RRsets and attaches RRSIGs.
func groupRRsets(rrs []dnswire.RR) []rrGroup {
	type key struct {
		name dnswire.Name
		t    dnswire.Type
	}
	idx := make(map[key]int)
	var out []rrGroup
	for _, rr := range rrs {
		if sig, ok := rr.Data.(dnswire.RRSIG); ok {
			k := key{rr.Name, sig.TypeCovered}
			if i, ok := idx[k]; ok {
				out[i].sigs = append(out[i].sigs, rr)
			} else {
				idx[k] = len(out)
				out = append(out, rrGroup{sigs: []dnswire.RR{rr}})
			}
			continue
		}
		k := key{rr.Name, rr.Type()}
		if i, ok := idx[k]; ok {
			out[i].rrs = append(out[i].rrs, rr)
		} else {
			idx[k] = len(out)
			out = append(out, rrGroup{rrs: []dnswire.RR{rr}})
		}
	}
	// Drop signature-only groups (their data lives elsewhere or is absent).
	kept := out[:0]
	for _, g := range out {
		if len(g.rrs) > 0 {
			kept = append(kept, g)
		}
	}
	return kept
}

// verifyGroup is the one RRset verifier: it reports whether any of g's
// RRSIGs validates g's records with any of keys, the signature check
// itself going through Config.VerifyMemo (nil: verify every time).
func (r *Resolver) verifyGroup(g rrGroup, apex dnswire.Name, keys []dnswire.DNSKEY) bool {
	set, err := dnssec.NewRRset(g.rrs)
	if err != nil {
		return false
	}
	now := r.cfg.Now()
	for _, sigRR := range g.sigs {
		sig := sigRR.Data.(dnswire.RRSIG)
		for _, key := range keys {
			if r.cfg.VerifyMemo.VerifyWithRRSIG(set, sig, key, apex, now) == nil {
				return true
			}
		}
	}
	return false
}

// verifyType reports whether groups holds at least one RRset of type t
// and every such RRset verifies — the SOA check, and over NSEC3 the
// Item 7 integrity check of the iteration field itself.
func (r *Resolver) verifyType(groups []rrGroup, t dnswire.Type, apex dnswire.Name, keys []dnswire.DNSKEY) bool {
	found := false
	for _, g := range groups {
		if g.rrs[0].Type() != t {
			continue
		}
		if !r.verifyGroup(g, apex, keys) {
			return false
		}
		found = true
	}
	return found
}

// verifyNSECDenialOfName validates a plain-NSEC denial: signatures over
// the NSEC records plus a covering or matching span for qname.
func (r *Resolver) verifyNSECDenialOfName(qname dnswire.Name, authority []rrGroup, apex dnswire.Name, keys []dnswire.DNSKEY) bool {
	if !r.verifyType(authority, dnswire.TypeNSEC, apex, keys) {
		return false
	}
	for _, g := range authority {
		for _, rr := range g.rrs {
			if nsec, ok := rr.Data.(dnswire.NSEC); ok && nsecCoversOrMatches(rr.Name, nsec.NextName, qname) {
				return true
			}
		}
	}
	return false
}

// nsecCoversOrMatches implements the canonical-order span check for
// NSEC records (including the wrap at the end of the chain).
func nsecCoversOrMatches(owner, next, q dnswire.Name) bool {
	if owner == q {
		return true
	}
	oc := dnswire.CanonicalCompare(owner, q)
	qn := dnswire.CanonicalCompare(q, next)
	if dnswire.CanonicalCompare(owner, next) < 0 {
		return oc < 0 && qn < 0
	}
	return oc < 0 || qn < 0
}

// Cache lifetimes of a zone's trust state: validated (or provably
// unsigned) zones are kept, failures retried soon.
const (
	trustTTL = 3600
	bogusTTL = 30
)

// zoneKeys establishes (and caches) the chain of trust for a zone apex:
// Secure with its validated DNSKEYs, Insecure below an unsigned
// delegation, or Bogus.
func (r *Resolver) zoneKeys(ctx context.Context, apex dnswire.Name, depth int) zoneTrust {
	now := r.cfg.Now()
	if zt, ok := r.zoneCache.get(apex, now); ok {
		return zt
	}
	if depth > maxDepth {
		return zoneTrust{status: StatusBogus}
	}
	zt := r.establishTrust(ctx, apex, depth)
	ttl := uint32(trustTTL)
	if zt.status == StatusBogus {
		ttl = bogusTTL
	}
	r.zoneCache.put(apex, zt, now, ttl)
	return zt
}

func (r *Resolver) establishTrust(ctx context.Context, apex dnswire.Name, depth int) zoneTrust {
	bogus := zoneTrust{status: StatusBogus}

	// Obtain the DS set authenticating this zone's KSK.
	var dsSet []dnswire.DS
	if apex.IsRoot() {
		dsSet = r.cfg.TrustAnchor
	} else {
		res, err := r.resolve(ctx, apex, dnswire.TypeDS, depth+1, false)
		switch {
		case err != nil || res.RCode == dnswire.RCodeServFail || res.Status == StatusBogus:
			return bogus
		case res.Status == StatusInsecure:
			// The parent zone itself is insecure (e.g. its own denial
			// exceeded the iteration limit): everything below is too.
			return zoneTrust{status: StatusInsecure}
		}
		for _, rr := range res.Answers {
			if ds, ok := rr.Data.(dnswire.DS); ok && rr.Name == apex {
				dsSet = append(dsSet, ds)
			}
		}
		if len(dsSet) == 0 {
			// Authenticated denial of DS: unsigned delegation.
			return zoneTrust{status: StatusInsecure}
		}
	}

	// Fetch and self-validate the DNSKEY RRset.
	auth, err := r.iterate(ctx, apex, dnswire.TypeDNSKEY, depth+1)
	if err != nil {
		return bogus
	}
	for _, g := range groupRRsets(auth.msg.Answers) {
		if g.rrs[0].Name != apex || g.rrs[0].Type() != dnswire.TypeDNSKEY {
			continue
		}
		keys := make([]dnswire.DNSKEY, len(g.rrs))
		for i, rr := range g.rrs {
			keys[i] = rr.Data.(dnswire.DNSKEY)
		}
		// Find a KSK matching a DS and use it to verify the DNSKEY RRset.
		for i, key := range keys {
			for _, ds := range dsSet {
				if dnssec.VerifyDS(apex, key, ds) == nil && r.verifyGroup(g, apex, keys[i:i+1]) {
					return zoneTrust{status: StatusSecure, keys: keys}
				}
			}
		}
	}
	return bogus
}
