// Package resolver implements a DNSSEC-validating recursive resolver:
// iterative resolution from a configured root, full chain-of-trust
// validation (DS → DNSKEY → RRSIG), NSEC3 denial-of-existence
// verification, caching, and — the paper's subject — a pluggable policy
// for NSEC3 iteration limits covering RFC 9276 Items 6–12.
//
// Policy profiles in this package model the behaviours the paper
// measured in the wild: BIND/Knot/PowerDNS with the 2021 limit of 150,
// the CVE-2023-50868 patches at 50, Google Public DNS at 100 (EDE 5),
// Cloudflare and OpenDNS SERVFAILing above 150, Technitium SERVFAILing
// above 100 with EDE 27, strict-zero boxes, and broken three-phase
// resolvers violating Item 12.
//
// # Where things happen
//
// Each of the validator's four jobs has exactly one site, which is also
// the one place to hook it:
//
//   - the walk — iterate (iterate.go) owns the only loop that follows
//     referrals (walk); QNAME minimization is "how many labels does this
//     hop expose" inside it, not a second walk. iterate starts at the
//     deepest cached zone cut enclosing the name — as every resolver the
//     paper probed does — and the delegation cache (cuts) has exactly one
//     writer, followReferral after its in-bailiwick check, and one
//     reader, closestCut at the top of iterate. A walk that started at a
//     cached cut and failed evicts it and is retried once from the
//     roots, so the cache decides which server is asked first and never
//     what the answer is (TestStatewalkDelegationCacheTransparent).
//   - the cache door — resolve (this file) is the only function that
//     reads or writes the message cache; client queries, the validator's
//     DS lookups and followReferral's glue-less NS address lookups all
//     enter through it. All four caches (messages, zone trust,
//     aggressive-NSEC zones, zone cuts) are one ttlCache shape bounded by
//     Config.MaxCacheEntries, so resolver state is enumerable from here
//     (ROADMAP 5a).
//   - the verifier — verifyGroup (validate.go) is the only caller of
//     dnssec.VerifyWithRRSIG; SOA, NSEC3, NSEC, answer and DNSKEY checks
//     are filters over groupRRsets output. It verifies through
//     Config.VerifyMemo: resolvers handed the same dnssec.VerifyMemo
//     (a study's fleet, one per core.Runner) check each distinct
//     (key, signature, signed data) once between them. Only that
//     cryptographic verdict is shared — the structural and validity-
//     window checks, NSEC3 hashing (countNSEC3Work), the four caches
//     and every policy decision stay per resolver and per call.
//   - the policy gate — validateDenial (validate.go) is the only caller
//     of applyIterationPolicy: the RFC 9276 Item 6/7/8 decision for
//     negative answers and wildcard expansions alike. A per-query
//     decision trace (ROADMAP 6c, -explain) renders this point.
package resolver

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// SecurityStatus is the RFC 4035 §4.3 classification of a response.
type SecurityStatus int

// Security statuses.
const (
	StatusIndeterminate SecurityStatus = iota
	StatusSecure
	StatusInsecure
	StatusBogus
)

// String returns the status name.
func (s SecurityStatus) String() string {
	switch s {
	case StatusSecure:
		return "SECURE"
	case StatusInsecure:
		return "INSECURE"
	case StatusBogus:
		return "BOGUS"
	}
	return "INDETERMINATE"
}

// NoLimit disables an iteration limit.
const NoLimit = -1

// Policy configures how the resolver treats NSEC3 iteration counts and
// what it reports to clients — the knobs RFC 9276 Items 6–12 describe.
type Policy struct {
	// Name labels the profile in experiment output.
	Name string
	// Validate enables DNSSEC validation; non-validating resolvers
	// never set AD and never SERVFAIL on bogus data.
	Validate bool
	// InsecureLimit implements Item 6: NSEC3 iteration counts strictly
	// above it make the zone's denial insecure (NXDOMAIN without AD).
	// NoLimit disables.
	InsecureLimit int
	// ServfailLimit implements Item 8: counts strictly above it yield
	// SERVFAIL. NoLimit disables.
	ServfailLimit int
	// VerifyInsecureNSEC3 implements Item 7: verify the RRSIGs over
	// NSEC3 records before trusting their iteration count even when
	// returning an insecure response. The 0.2 % of validators the
	// paper flags as non-compliant have this false.
	VerifyInsecureNSEC3 bool
	// EDE, when non-zero, is attached to insecure/SERVFAIL responses
	// caused by the iteration limit (Item 10). RFC 9276 wants 27;
	// Google returns 5 and OpenDNS 12 instead (§5.2).
	EDE dnswire.EDECode
	// EDEText is the EXTRA-TEXT accompanying EDE (Technitium-style).
	EDEText string
	// EchoRA models the broken forwarders the paper observed: the RA
	// bit is copied from the query instead of being asserted.
	EchoRA bool
	// NoNegativeAD models forwarders and validators that never set the
	// AD bit on negative responses even when the denial validated —
	// the large class of §5.2 validators with no observable Item 6
	// transition (they pass the valid/expired test but answer every
	// it-N probe with a plain NXDOMAIN).
	NoNegativeAD bool
	// AggressiveNSEC enables RFC 8198 aggressive use of the
	// DNSSEC-validated cache: NXDOMAINs are synthesized from cached
	// NSEC3 spans when they prove the queried name absent.
	AggressiveNSEC bool
	// QNameMinimization enables RFC 9156 minimized iteration: each
	// delegation level only sees one more label of the query name.
	// An NXDOMAIN for a minimized ancestor proves the full name
	// absent, and its NSEC3 closest-encloser proof validates for the
	// original qname unchanged.
	QNameMinimization bool
}

// Config assembles a resolver.
type Config struct {
	// Roots are the root name server addresses.
	Roots []netip.AddrPort
	// TrustAnchor is the DS set validating the root DNSKEY. Empty
	// disables validation regardless of Policy.Validate.
	TrustAnchor []dnswire.DS
	// Exchanger is the transport (simulated network or real sockets).
	Exchanger netsim.Exchanger
	// Policy is the NSEC3/validation behaviour profile.
	Policy Policy
	// Now supplies the validation clock (Unix seconds). Nil means
	// wall clock.
	Now func() uint32
	// MaxCacheEntries bounds each internal cache (default 4096).
	MaxCacheEntries int
	// Obs, when set, receives resolver metrics (upstream query count,
	// aggressive-cache hits/misses, NSEC3 hash work). Nil disables
	// instrumentation.
	Obs *obs.Registry
	// VerifyMemo, when set, answers the cryptographic step of RRSIG
	// verification from verdicts shared with every other resolver given
	// the same memo. Nil verifies every signature every time.
	VerifyMemo *dnssec.VerifyMemo
}

// Resolver is a validating recursive resolver. It implements
// netsim.Handler so it can serve clients inside the simulation, and
// exposes Resolve for direct library use.
type Resolver struct {
	cfg Config

	// msgCache holds client results (touched only by resolve);
	// zoneCache the chain-of-trust state per zone apex; cuts the server
	// addresses of each delegation followed (written by followReferral,
	// read by closestCut at the top of iterate).
	msgCache  *ttlCache[cacheKey, *Result]
	zoneCache *ttlCache[dnswire.Name, zoneTrust]
	cuts      *ttlCache[dnswire.Name, []netip.AddrPort]

	// aggressive is the RFC 8198 validated-denial cache (nil unless
	// the policy enables it).
	aggressive *aggressiveCache

	// met holds the observability counters (all no-op without
	// Config.Obs).
	met metrics
}

type cacheKey struct {
	name  dnswire.Name
	qtype dnswire.Type
	cd    bool
}

// zoneTrust is the validated key state of one zone.
type zoneTrust struct {
	status SecurityStatus
	keys   []dnswire.DNSKEY
}

// ttlCache is the one cache shape of the package: entries expire in
// RFC 1982 serial time, and a table that has reached max entries is
// flushed whole before the next insert.
type ttlCache[K comparable, V any] struct {
	mu  sync.Mutex
	max int
	m   map[K]ttlEntry[V]
}

type ttlEntry[V any] struct {
	v      V
	expiry uint32
}

func newTTLCache[K comparable, V any](max int) *ttlCache[K, V] {
	return &ttlCache[K, V]{max: max, m: make(map[K]ttlEntry[V])}
}

// get returns the entry for k if it is still live at now.
func (c *ttlCache[K, V]) get(k K, now uint32) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	return e.v, ok && serialLTE(now, e.expiry)
}

// put stores v under k until now+ttl.
func (c *ttlCache[K, V]) put(k K, v V, now, ttl uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) >= c.max {
		c.m = make(map[K]ttlEntry[V]) // simple full flush
	}
	c.m[k] = ttlEntry[V]{v, now + ttl}
}

// drop forgets k.
func (c *ttlCache[K, V]) drop(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, k)
}

// Result is the outcome of one resolution as presented to a client.
type Result struct {
	RCode     dnswire.RCode
	Status    SecurityStatus
	AD        bool
	Answers   []dnswire.RR
	Authority []dnswire.RR
	EDE       []dnswire.EDE
}

// wallClock is the default Config.Now: serial-arithmetic seconds from
// the system clock, as RFC 4034 §3.1.5 validity checks expect.
//
//repro:nondeterministic default signature-validity clock; deterministic runs inject Config.Now
func wallClock() uint32 { return uint32(time.Now().Unix()) }

// New creates a resolver from cfg.
func New(cfg Config) *Resolver {
	if cfg.Now == nil {
		cfg.Now = wallClock
	}
	if cfg.MaxCacheEntries == 0 {
		cfg.MaxCacheEntries = 4096
	}
	r := &Resolver{
		cfg:       cfg,
		msgCache:  newTTLCache[cacheKey, *Result](cfg.MaxCacheEntries),
		zoneCache: newTTLCache[dnswire.Name, zoneTrust](cfg.MaxCacheEntries),
		cuts:      newTTLCache[dnswire.Name, []netip.AddrPort](cfg.MaxCacheEntries),
		met:       newMetrics(cfg.Obs),
	}
	if cfg.Policy.AggressiveNSEC {
		r.aggressive = &aggressiveCache{zones: newTTLCache[dnswire.Name, *aggressiveZone](cfg.MaxCacheEntries)}
	}
	return r
}

// Policy returns the resolver's policy profile.
func (r *Resolver) Policy() Policy { return r.cfg.Policy }

// Resolve answers (qname, qtype) for a client, consulting the cache.
func (r *Resolver) Resolve(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*Result, error) {
	return r.ResolveCD(ctx, qname, qtype, false)
}

// ResolveCD is Resolve with an explicit Checking Disabled flag: when cd
// is true, DNSSEC validation is skipped and the upstream data returned
// as-is (RFC 4035 §3.2.2) — how measurement scanners retrieve records
// from zones a validator would reject.
func (r *Resolver) ResolveCD(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, cd bool) (*Result, error) {
	return r.resolve(ctx, qname, qtype, 0, cd)
}

// resolve is the cache door: the only function that reads or writes
// the message cache. Client queries enter at depth 0; the validator's
// DS lookups re-enter deeper and share the same entries and bound.
func (r *Resolver) resolve(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, depth int, cd bool) (*Result, error) {
	now := r.cfg.Now()
	key := cacheKey{qname, qtype, cd}
	if res, ok := r.msgCache.get(key, now); ok {
		return res, nil
	}
	res, ttl, err := r.resolveUncached(ctx, qname, qtype, depth, cd)
	if err != nil {
		return nil, err
	}
	r.msgCache.put(key, res, now, ttl)
	return res, nil
}

// servfail builds a SERVFAIL result, attaching the policy EDE when the
// failure was caused by the iteration limit (limitHit).
func (r *Resolver) servfail(limitHit bool) *Result {
	res := &Result{RCode: dnswire.RCodeServFail, Status: StatusBogus}
	if limitHit && r.cfg.Policy.EDE != 0 {
		res.EDE = append(res.EDE, dnswire.EDE{Code: r.cfg.Policy.EDE, Text: r.cfg.Policy.EDEText})
	}
	return res
}

// Handle implements netsim.Handler: the resolver as a recursive server.
func (r *Resolver) Handle(ctx context.Context, from netip.AddrPort, query *dnswire.Message) *dnswire.Message {
	resp := &dnswire.Message{
		Header: dnswire.Header{
			ID:               query.Header.ID,
			Response:         true,
			Opcode:           query.Header.Opcode,
			RecursionDesired: query.Header.RecursionDesired,
		},
		Questions: query.Questions,
	}
	if r.cfg.Policy.EchoRA {
		// Broken boxes copy the query's RA bit (paper §5.2).
		resp.Header.RecursionAvailable = query.Header.RecursionAvailable
	} else {
		resp.Header.RecursionAvailable = true
	}
	queryOPT, hasOPT := query.OPT()
	clientDO := hasOPT && queryOPT.DO
	if query.Header.Opcode != dnswire.OpcodeQuery || len(query.Questions) != 1 {
		resp.Header.RCode = dnswire.RCodeNotImp
		return resp
	}
	q := query.Questions[0]
	res, err := r.ResolveCD(ctx, q.Name, q.Type, query.Header.CheckingDisabled)
	if err != nil {
		res = r.servfail(false)
	}
	resp.Header.RCode = res.RCode
	resp.Header.AuthenticatedData = res.AD
	resp.Answers = res.Answers
	resp.Authority = res.Authority
	if hasOPT {
		opt := &dnswire.OPT{UDPSize: dnswire.DefaultUDPSize, DO: clientDO}
		opt.EDEs = append(opt.EDEs, res.EDE...)
		resp.Additional = append(resp.Additional, opt.AsRR())
	}
	if !clientDO {
		// Strip DNSSEC records the client did not ask for.
		resp.Answers = stripDNSSEC(resp.Answers)
		resp.Authority = stripDNSSEC(resp.Authority)
	}
	return resp
}

func stripDNSSEC(rrs []dnswire.RR) []dnswire.RR {
	out := rrs[:0:0]
	for _, rr := range rrs {
		switch rr.Type() {
		case dnswire.TypeRRSIG, dnswire.TypeNSEC, dnswire.TypeNSEC3:
			continue
		}
		out = append(out, rr)
	}
	return out
}

// serialLTE is RFC 1982 serial comparison, shared with dnssec.
func serialLTE(a, b uint32) bool { return int32(b-a) >= 0 }

// exchange sends query to server with small retries.
func (r *Resolver) exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		r.met.upstream.Inc()
		resp, err := r.cfg.Exchanger.Exchange(ctx, server, q)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("resolver: exchange with %s: %w", server, lastErr)
}
