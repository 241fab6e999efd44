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

// verdict is the validator's finding on one response: its security
// status, and whether a configured NSEC3 iteration limit decided it
// (RFC 9276 Items 6 and 8) — the case Item 10's EDE reports. The zero
// verdict is Indeterminate: nothing was validated.
type verdict struct {
	status  SecurityStatus
	byLimit bool
}

// validateResponse classifies a response from zone fallbackApex.
func (r *Resolver) validateResponse(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, msg *dnswire.Message, fallbackApex dnswire.Name, depth int) verdict {
	apex := responseZone(msg, fallbackApex)
	zt := r.zoneKeys(ctx, apex, depth)
	if zt.status != StatusSecure {
		return verdict{status: zt.status}
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
func (r *Resolver) validatePositive(qname dnswire.Name, msg *dnswire.Message, apex dnswire.Name, keys []dnswire.DNSKEY) verdict {
	answers := groupRRsets(msg.Answers)
	if len(answers) == 0 {
		return verdict{status: StatusBogus}
	}
	wildcardLabels := -1
	for _, g := range answers {
		if !r.verifyGroup(g, apex, keys) {
			return verdict{status: StatusBogus}
		}
		for _, sigRR := range g.sigs {
			sig := sigRR.Data.(dnswire.RRSIG)
			if int(sig.Labels) < g.rrs[0].Name.CountLabels() {
				wildcardLabels = int(sig.Labels)
			}
		}
	}
	if wildcardLabels < 0 {
		return verdict{status: StatusSecure}
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
func (r *Resolver) validateNegative(qname dnswire.Name, qtype dnswire.Type, msg *dnswire.Message, apex dnswire.Name, keys []dnswire.DNSKEY) verdict {
	authority := groupRRsets(msg.Authority)
	// The SOA RRset must be signed.
	if !r.verifyType(authority, dnswire.TypeSOA, apex, keys) {
		return verdict{status: StatusBogus}
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
// once the policy admits full validation.
func (r *Resolver) validateDenial(qname dnswire.Name, msg *dnswire.Message, authority []rrGroup, apex dnswire.Name, keys []dnswire.DNSKEY, prove func(*nsec3.ResponseSet) SecurityStatus) verdict {
	set3, err := nsec3.ExtractResponseSet(msg.Authority)
	if err != nil {
		// No NSEC3 records: try NSEC, else the zone failed to prove
		// the denial.
		if r.verifyNSECDenialOfName(qname, authority, apex, keys) {
			return verdict{status: StatusSecure}
		}
		return verdict{status: StatusBogus}
	}
	iterations := int(set3.Params.Iterations)
	if v := r.applyIterationPolicy(iterations); v.status != StatusIndeterminate {
		// Item 7: in the insecure region a compliant validator still
		// authenticates the NSEC3 records before trusting their
		// iteration field. Above a SERVFAIL limit they are never
		// consulted.
		if v.status == StatusInsecure && r.cfg.Policy.VerifyInsecureNSEC3 && !r.verifyType(authority, dnswire.TypeNSEC3, apex, keys) {
			return verdict{status: StatusBogus}
		}
		return v
	}
	// Within limits: full validation. The denial proof is about to be
	// re-hashed, so charge its iteration cost to the work counter.
	r.countNSEC3Work(qname, set3.Zone, iterations)
	if !r.verifyType(authority, dnswire.TypeNSEC3, apex, keys) {
		return verdict{status: StatusBogus}
	}
	return verdict{status: prove(set3)}
}

// applyIterationPolicy maps an NSEC3 iteration count to the resolver's
// configured behaviour: Bogus above a SERVFAIL limit (Item 8), Insecure
// above an insecure limit (Item 6) or RFC 5155's ceiling, and the zero
// verdict when the proof must be validated in full.
func (r *Resolver) applyIterationPolicy(iterations int) verdict {
	p := r.cfg.Policy
	if p.ServfailLimit != NoLimit && iterations > p.ServfailLimit {
		return verdict{status: StatusBogus, byLimit: true}
	}
	if p.InsecureLimit != NoLimit && iterations > p.InsecureLimit {
		return verdict{status: StatusInsecure, byLimit: true}
	}
	// RFC 5155 §10.3 always applies: beyond 2500 iterations even an
	// unlimited resolver treats the proof as insecure.
	if iterations > nsec3.RFC5155MaxIterations {
		return verdict{status: StatusInsecure}
	}
	return verdict{}
}

// rrGroup is an RRset with its covering signatures.
type rrGroup struct {
	rrs  []dnswire.RR
	sigs []dnswire.RR
}

// groupRRsets splits a section into RRsets and attaches RRSIGs. Groups
// keep the order of their first record, and a group of signatures alone
// is dropped (its data lives elsewhere or is absent). The first pass
// sizes the groups that hold data; the second lays each out, records
// then signatures, in one array shared by all groups, so the result is
// two allocations. A record finds the rest of its group by scanning the
// section, which is quadratic in its length: a validator's sections
// are a handful of records.
func groupRRsets(rrs []dnswire.RR) []rrGroup {
	groups, size := 0, 0
	for i := range rrs {
		if data, sigs := groupAt(rrs, i); data > 0 {
			groups++
			size += data + sigs
		}
	}
	if groups == 0 {
		return nil
	}
	out := make([]rrGroup, 0, groups)
	all := make([]dnswire.RR, 0, size)
	for i := range rrs {
		data, _ := groupAt(rrs, i)
		if data == 0 {
			continue
		}
		name, t, _ := groupKey(rrs[i])
		start := len(all)
		for _, wantSig := range [2]bool{false, true} {
			for _, rr := range rrs[i:] {
				if n, u, sig := groupKey(rr); n == name && u == t && sig == wantSig {
					all = append(all, rr)
				}
			}
		}
		mid := start + data
		out = append(out, rrGroup{rrs: all[start:mid:mid], sigs: all[mid:len(all):len(all)]})
	}
	return out
}

// groupKey is what a record is grouped by: its owner and type, or, for
// an RRSIG, the type it covers.
func groupKey(rr dnswire.RR) (name dnswire.Name, t dnswire.Type, sig bool) {
	if s, ok := rr.Data.(dnswire.RRSIG); ok {
		return rr.Name, s.TypeCovered, true
	}
	return rr.Name, rr.Type(), false
}

// groupAt counts the records and signatures of rrs[i]'s group when
// rrs[i] is its first record, and returns 0, 0 otherwise.
func groupAt(rrs []dnswire.RR, i int) (data, sigs int) {
	name, t, _ := groupKey(rrs[i])
	for _, rr := range rrs[:i] {
		if n, u, _ := groupKey(rr); n == name && u == t {
			return 0, 0
		}
	}
	for _, rr := range rrs[i:] {
		if n, u, sig := groupKey(rr); n == name && u == t {
			if sig {
				sigs++
			} else {
				data++
			}
		}
	}
	return data, sigs
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
		case err != nil || res.Status == StatusBogus:
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
