package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"

	"repro/internal/dnswire"
)

// Iteration limits.
const (
	maxReferrals = 32
	maxDepth     = 12
	maxCNAME     = 8
)

// Errors from iteration.
var (
	ErrNoServers = errors.New("resolver: no reachable name servers")
	ErrLoop      = errors.New("resolver: resolution depth exceeded")
	ErrLame      = errors.New("resolver: lame delegation")
)

// authResponse is the raw outcome of iterating to the authoritative
// zone for a query.
type authResponse struct {
	msg  *dnswire.Message
	apex dnswire.Name // deepest delegation followed (zone context)
}

// iterate is the one delegation walk: from the deepest cached zone cut
// enclosing qname (the roots when none is cached) to the zone
// authoritative for it, returning that zone's response. A walk that
// started at a cached cut and failed — no server answered, a lame RCODE
// or referral — evicts that cut and is retried once from the roots, so a
// cached delegation can cost a retry but never change an outcome.
func (r *Resolver) iterate(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, depth int) (*authResponse, error) {
	if depth > maxDepth {
		return nil, ErrLoop
	}
	apex, servers := r.closestCut(qname, qtype)
	auth, err := r.walk(ctx, qname, qtype, apex, servers, depth)
	if err != nil && !apex.IsRoot() {
		r.cuts.drop(apex)
		auth, err = r.walk(ctx, qname, qtype, dnswire.Root, r.cfg.Roots, depth)
	}
	return auth, err
}

// closestCut is the delegation cache's one reader: the deepest cached
// zone cut enclosing qname and its server addresses, or the roots. For
// a DS query the cut must be strictly above qname — the parent side of
// qname's own cut holds the DS RRset, the child's servers do not.
func (r *Resolver) closestCut(qname dnswire.Name, qtype dnswire.Type) (dnswire.Name, []netip.AddrPort) {
	now := r.cfg.Now()
	n := qname
	if qtype == dnswire.TypeDS {
		n = n.Parent()
	}
	for ; !n.IsRoot(); n = n.Parent() {
		if servers, ok := r.cuts.get(n, now); ok {
			r.met.cutHits.Inc()
			return n, servers
		}
	}
	return dnswire.Root, r.cfg.Roots
}

// walk is iterate's loop, the only one that follows referrals: from the
// zone apex served by servers down to the zone authoritative for qname.
//
// With Policy.QNameMinimization (RFC 9156) each hop exposes only one
// more label than is known to exist, probing with NS queries until the
// full name and real type are reached. That composes cleanly with
// DNSSEC validation: an NXDOMAIN for a minimized ancestor m of qname
// carries a closest-encloser proof whose covered next-closer name is m
// itself — exactly qname's next closer below the same encloser — so
// nsec3.VerifyNXDOMAIN(qname) accepts the proof unchanged. Without
// minimization every hop exposes the full name, and labels stays nil so
// that path never pays for the split.
func (r *Resolver) walk(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, apex dnswire.Name, servers []netip.AddrPort, depth int) (*authResponse, error) {
	// DS queries keep the full-name walk: they are answered by the
	// parent, which a minimized NS probe would skip past.
	var labels []string
	if r.cfg.Policy.QNameMinimization && qtype != dnswire.TypeDS {
		labels = qname.Labels()
	}
	// known counts the trailing labels of qname confirmed to exist or be
	// delegated. Every hop follows a referral or confirms one more
	// label, which bounds the loop.
	known := apex.CountLabels()
	for hop := 0; hop < maxReferrals+len(labels); hop++ {
		cur, curType := qname, qtype
		if known+1 < len(labels) {
			var err error
			if cur, err = dnswire.FromLabels(labels[len(labels)-known-1:]...); err != nil {
				return nil, err
			}
			curType = dnswire.TypeNS
		}
		msg, err := r.queryAny(ctx, servers, cur, curType)
		if err != nil {
			return nil, err
		}
		if msg.Header.RCode != dnswire.RCodeNoError && msg.Header.RCode != dnswire.RCodeNXDomain {
			return nil, fmt.Errorf("%w: %s from zone %s", ErrLame, msg.Header.RCode, apex)
		}
		if isReferral(msg) {
			if apex, servers, err = r.followReferral(ctx, msg, apex, depth); err != nil {
				return nil, err
			}
			known = max(known, apex.CountLabels())
			continue
		}
		// An NXDOMAIN for a minimized ancestor denies the whole subtree
		// (RFC 8020), so it is as final as the answer for qname itself.
		if cur == qname || msg.Header.RCode == dnswire.RCodeNXDomain {
			return &authResponse{msg: msg, apex: apex}, nil
		}
		// The minimized name exists (NODATA or some data): expose one
		// more label to the same servers.
		known++
	}
	return nil, ErrLoop
}

// isReferral reports whether msg is a delegation: non-authoritative,
// empty answer, NS records in authority.
func isReferral(msg *dnswire.Message) bool {
	if msg.Header.Authoritative || len(msg.Answers) > 0 {
		return false
	}
	for _, rr := range msg.Authority {
		if rr.Type() == dnswire.TypeNS {
			return true
		}
	}
	return false
}

// followReferral extracts the cut and next server addresses, resolving
// glue-less NS hosts recursively (through the cache door, so a host's
// address is looked up once), and is the delegation cache's one writer.
func (r *Resolver) followReferral(ctx context.Context, msg *dnswire.Message, parent dnswire.Name, depth int) (dnswire.Name, []netip.AddrPort, error) {
	var cut dnswire.Name
	var hosts []dnswire.Name
	var ttl uint32
	for _, rr := range msg.Authority {
		if ns, ok := rr.Data.(dnswire.NS); ok {
			if len(hosts) == 0 || rr.TTL < ttl {
				ttl = rr.TTL
			}
			cut = rr.Name
			hosts = append(hosts, ns.Host)
		}
	}
	if cut == "" {
		return "", nil, ErrLame
	}
	if !cut.IsSubdomainOf(parent) || cut == parent {
		return "", nil, fmt.Errorf("%w: referral %s not below %s", ErrLame, cut, parent)
	}
	var addrs []netip.AddrPort
	for _, rr := range msg.Additional {
		switch d := rr.Data.(type) {
		case dnswire.A:
			addrs = append(addrs, netip.AddrPortFrom(d.Addr, 53))
		case dnswire.AAAA:
			addrs = append(addrs, netip.AddrPortFrom(d.Addr, 53))
		}
	}
	if len(addrs) == 0 {
		// No glue: resolve the NS hosts ourselves.
		for _, h := range hosts {
			res, err := r.resolve(ctx, h, dnswire.TypeA, depth+1, false)
			if err != nil {
				continue
			}
			for _, rr := range res.Answers {
				if a, ok := rr.Data.(dnswire.A); ok {
					addrs = append(addrs, netip.AddrPortFrom(a.Addr, 53))
				}
			}
			if len(addrs) > 0 {
				break
			}
		}
	}
	if len(addrs) == 0 {
		return "", nil, fmt.Errorf("%w: no addresses for %s NS", ErrNoServers, cut)
	}
	r.cuts.put(cut, addrs, r.cfg.Now(), ttl)
	return cut, addrs, nil
}

// queryAny tries servers in order until one responds.
func (r *Resolver) queryAny(ctx context.Context, servers []netip.AddrPort, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	dnssecOK := r.validating()
	var lastErr error
	for i, s := range servers {
		q := dnswire.NewQuery(uint16(0x8000|i<<8)^uint16(qnameHash(qname)), qname, qtype, dnssecOK)
		q.Header.RecursionDesired = false
		resp, err := r.exchange(ctx, s, q)
		if err != nil {
			lastErr = err
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

// qnameHash derives a deterministic query ID component so simulated
// traces are reproducible.
func qnameHash(n dnswire.Name) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(n); i++ {
		h ^= uint32(n[i])
		h *= 16777619
	}
	return h
}

// validating reports whether the resolver performs DNSSEC validation.
func (r *Resolver) validating() bool {
	return r.cfg.Policy.Validate && len(r.cfg.TrustAnchor) > 0
}

// resolveUncached is the full pipeline for one query: iterate,
// validate, post-process (CNAME chase), and package the client result
// with its cache TTL.
func (r *Resolver) resolveUncached(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, depth int, cd bool) (*Result, uint32, error) {
	if depth > maxDepth {
		return nil, 0, ErrLoop
	}
	// RFC 8198: synthesize the NXDOMAIN from cached validated NSEC3
	// spans when possible, skipping the network entirely.
	if !cd {
		if res, ok := r.tryAggressive(qname); ok {
			return res, 30, nil
		}
	}
	auth, err := r.iterate(ctx, qname, qtype, depth)
	if err != nil {
		// Unreachable/lame: SERVFAIL, cached briefly.
		return r.servfail(false), 30, nil
	}
	msg := auth.msg

	status := StatusIndeterminate
	limitHit := false
	if r.validating() && !cd {
		status, limitHit = r.validateResponse(ctx, qname, qtype, msg, auth.apex, depth)
		if status == StatusBogus {
			return r.servfail(limitHit), 30, nil
		}
	}

	res := &Result{
		RCode:  msg.Header.RCode,
		Status: status,
		AD:     status == StatusSecure,
	}
	if r.cfg.Policy.NoNegativeAD && (msg.Header.RCode == dnswire.RCodeNXDomain || len(msg.Answers) == 0) {
		// Negative responses never carry AD for this profile: NXDOMAIN
		// and NODATA alike (the statewalk NODATA topologies caught the
		// NODATA half missing).
		res.AD = false
	}
	if status == StatusSecure && msg.Header.RCode == dnswire.RCodeNXDomain {
		r.learnAggressive(msg)
	}
	if limitHit && r.cfg.Policy.EDE != 0 {
		// Item 10: insecure responses caused by the limit carry EDE.
		res.EDE = append(res.EDE, dnswire.EDE{Code: r.cfg.Policy.EDE, Text: r.cfg.Policy.EDEText})
	}
	res.Answers = append(res.Answers, msg.Answers...)
	res.Authority = append(res.Authority, msg.Authority...)

	// CNAME chase: if the answer is an alias and the query wanted
	// something else, continue at the target — through the cache door,
	// so two aliases of one target resolve it once.
	if cname, ok := answerCNAME(msg, qname); ok && qtype != dnswire.TypeCNAME && !hasType(msg.Answers, qname, qtype) {
		if depth >= maxCNAME {
			return r.servfail(false), 30, nil
		}
		chained, err := r.resolve(ctx, cname, qtype, depth+1, cd)
		if err != nil {
			return r.servfail(false), 30, nil
		}
		res.RCode = chained.RCode
		res.Answers = append(res.Answers, chained.Answers...)
		res.Authority = chained.Authority
		if chained.Status == StatusBogus || chained.RCode == dnswire.RCodeServFail {
			// The alias owner cannot mask why the target failed: keep
			// the chained EDE (e.g. the iteration-limit code when the
			// target zone's denial exceeded ServfailLimit).
			sf := r.servfail(false)
			sf.EDE = append(sf.EDE, chained.EDE...)
			return sf, 30, nil
		}
		// The chain is only as secure as its weakest link.
		if chained.Status != StatusSecure {
			res.Status = chained.Status
			res.AD = false
		}
		// Re-apply the negative-AD policy to the post-chase RCODE: an
		// alias chain ending in NXDOMAIN is a negative answer even
		// though the first hop was positive.
		if r.cfg.Policy.NoNegativeAD && res.RCode == dnswire.RCodeNXDomain {
			res.AD = false
		}
		res.EDE = append(res.EDE, chained.EDE...)
	}

	return res, r.ttlFor(msg), nil
}

func answerCNAME(msg *dnswire.Message, qname dnswire.Name) (dnswire.Name, bool) {
	for _, rr := range msg.Answers {
		if rr.Name == qname {
			if c, ok := rr.Data.(dnswire.CNAME); ok {
				return c.Target, true
			}
		}
	}
	return "", false
}

func hasType(rrs []dnswire.RR, owner dnswire.Name, t dnswire.Type) bool {
	for _, rr := range rrs {
		if rr.Name == owner && rr.Type() == t {
			return true
		}
	}
	return false
}

// ttlFor derives the cache TTL for a response: minimum answer TTL, or
// the SOA minimum for negatives, floored at 1 and capped at a day.
func (r *Resolver) ttlFor(msg *dnswire.Message) uint32 {
	var ttl uint32 = 86400
	found := false
	for _, rr := range msg.Answers {
		if rr.TTL < ttl {
			ttl = rr.TTL
		}
		found = true
	}
	if !found {
		for _, rr := range msg.Authority {
			if soa, ok := rr.Data.(dnswire.SOA); ok {
				ttl = min(rr.TTL, soa.Minimum)
				found = true
			}
		}
	}
	if !found || ttl == 0 {
		return 1
	}
	return ttl
}
