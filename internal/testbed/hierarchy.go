// Package testbed assembles complete simulated DNS hierarchies — root,
// TLDs, and leaf zones wired to authoritative servers on a netsim
// network — and reproduces the paper's measurement infrastructure: the
// rfc9276-in-the-wild.com domain with its 49 specially crafted
// subdomains (valid, expired, it-1 … it-500, it-2501-expired) and the
// prober that queries them through a resolver to classify its RFC 9276
// behaviour.
package testbed

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/authserver"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/zone"
)

// ZoneSpec describes one zone to build into a hierarchy.
type ZoneSpec struct {
	// Apex is the zone name.
	Apex dnswire.Name
	// Populate adds the zone's records (SOA/NS/glue are added by the
	// builder; add only data records).
	Populate func(*zone.Zone)
	// Sign configures DNSSEC for the zone. Inception/Expiration are
	// filled from the builder defaults when zero.
	Sign zone.SignConfig
	// Unsigned, when true, leaves the zone without DNSSEC (its
	// delegation gets no DS — an insecure delegation).
	Unsigned bool
	// NSHost overrides the conventional in-bailiwick "ns.<apex>" name
	// server host. An out-of-bailiwick NSHost produces a glue-less
	// delegation that resolvers chase by resolving the host themselves
	// (how operator-run name servers appear in the real DNS).
	NSHost dnswire.Name
	// Shared marks the zone as identical across repeated builds (its
	// content does not depend on the build's shard or seed), making it
	// eligible for the builder's SignCache: keys are reused per apex
	// and signing is skipped entirely on a content match.
	Shared bool
	// BreakDS corrupts the DS digest the parent publishes for this
	// (signed) zone: the delegation points at a key that does not
	// exist, so the chain of trust is verifiably broken — validators
	// must go bogus, not insecure.
	BreakDS bool
	// OmitDS withholds the DS from the parent even though the zone is
	// signed: the parent's authenticated denial of DS makes the
	// delegation provably insecure and the child's DNSSEC material is
	// never validated (an "insecure island" when the child has secure
	// descendants of its own).
	OmitDS bool
	// Server is the address the zone's authoritative server listens
	// on. Zones may share a server.
	Server netip.AddrPort
	// ServerV6, when valid, adds an IPv6 address for the same server.
	ServerV6 netip.AddrPort
}

// Hierarchy is a built, signed, served DNS tree.
type Hierarchy struct {
	Net         *netsim.Network
	Roots       []netip.AddrPort
	TrustAnchor []dnswire.DS
	// Zones maps apex to its signed zone for the DNSSEC-signed zones
	// Build materialized itself. Lazily-registered zones appear here
	// never — query them through the network or force them with
	// Materialize.
	Zones map[dnswire.Name]*zone.Signed
	// Servers maps listen address to the server instance.
	Servers map[netip.AddrPort]*authserver.Server
	// Log records queries on every server (shared).
	Log *authserver.QueryLog

	// hosts maps every apex to its serving server, so Materialize can
	// reach a zone without knowing the topology.
	hosts map[dnswire.Name]*authserver.Server
	// signed/reused count signing work: zones signed fresh versus served
	// from the builder's SignCache. Atomic — lazy zones sign on
	// query-handling goroutines.
	signed, reused atomic.Int64
	// sigs lists the signed zones this hierarchy has built or been
	// handed by the SignCache so far (SigStats); mu guards it.
	mu   sync.Mutex
	sigs []hostedSigs
}

// hostedSigs is a signed zone a hierarchy serves and how many of its
// signatures were made before the hierarchy got it — none, unless the
// zone was a SignCache hit.
type hostedSigs struct {
	sz     *zone.Signed
	hit    bool
	before int
}

// Materialize forces the build of the zone with the given apex —
// idempotent, and a cheap lookup for zones Build already built. It
// builds the zone (records, keys, denial chain); in a lazy hierarchy
// the zone's signatures are still made as answers carry them, and what
// forces every one is zone.Signed.AllRecords (a transfer) or SignAll.
// AXFR setup and tests use it to reach a lazy zone without synthesizing
// a query. ctx bounds the wait when another goroutine is already
// building the apex. The materialized zone is NOT added to h.Zones
// (which is a plain map, read concurrently); it lives on the serving
// server.
func (h *Hierarchy) Materialize(ctx context.Context, apex dnswire.Name) (*zone.Signed, error) {
	srv, ok := h.hosts[apex]
	if !ok {
		return nil, fmt.Errorf("testbed: no zone %s in hierarchy", apex)
	}
	return srv.Materialize(ctx, apex)
}

// SignStats reports the hierarchy's signing work so far — during Build
// and on first queries alike — as fresh signs versus sign-cache hits.
func (h *Hierarchy) SignStats() (signed, reused int) {
	return int(h.signed.Load()), int(h.reused.Load())
}

// SigStats reports signature work so far: made is the number of RRSIGs
// made since this hierarchy got their zones, whoever asked; total is
// the number of RRSIGs the zones it signed fresh hold when complete.
// total − made is what signing on first serve has saved so far. A
// SignCache hit adds only what was made since to made and nothing to
// total, so both stay sums over the hierarchies that share a cache.
func (h *Hierarchy) SigStats() (made, total int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, hs := range h.sigs {
		m, t := hs.sz.SigStats()
		made += m - hs.before
		if !hs.hit {
			total += t
		}
	}
	return made, total
}

// LazyStats reports how many lazily-registered zones were materialized
// by queries (or Materialize) and how many were never touched — the
// zones whose raw-zone construction and signing this hierarchy never
// paid for.
func (h *Hierarchy) LazyStats() (materialized, untouched int) {
	for _, srv := range h.Servers {
		m, p := srv.LazyStats()
		materialized += m
		untouched += p
	}
	return materialized, untouched
}

// Instrument attaches an obs registry to every server in the
// hierarchy (lazy sign-wait histogram + lazily-signed counter). Call
// before serving queries.
func (h *Hierarchy) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, srv := range h.Servers {
		srv.Instrument(reg)
	}
}

// Builder accumulates zone specs and wires them together.
type Builder struct {
	specs map[dnswire.Name]*ZoneSpec
	// Inception/Expiration default the RRSIG window of every zone.
	Inception, Expiration uint32
	// TTL is the default record TTL.
	TTL uint32

	cache *SignCache
	lazy  bool
}

// BuilderOption configures a Builder at construction.
type BuilderOption func(*Builder)

// WithCache reuses keys and signed zones for specs marked Shared
// across repeated builds (the sharded survey's deployment loop).
func WithCache(c *SignCache) BuilderOption {
	return func(b *Builder) { b.cache = c }
}

// WithLazySigning defers signing to first use, at two grains. A zone
// other than the root is not built until a query reaches it: Build
// hands its sign thunk to its server instead of running it, and the
// first query materializes the zone under a per-zone singleflight. And
// no built zone, the root included, makes an RRSIG before an answer
// carries it (zone.SignOnDemand) — an eager build calls SignAll on
// every zone instead. KSKs are resolved (and DS records published) at
// build time either way — a delegation's DS depends only on the child's
// KSK — so the hierarchy validates identically to an eager build. Peak
// memory becomes O(zones touched) instead of O(zones hosted).
func WithLazySigning() BuilderOption {
	return func(b *Builder) { b.lazy = true }
}

// NewBuilder creates a builder with the given default signing window.
func NewBuilder(inception, expiration uint32, opts ...BuilderOption) *Builder {
	b := &Builder{
		specs:     make(map[dnswire.Name]*ZoneSpec),
		Inception: inception, Expiration: expiration,
		TTL: 300,
	}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// AddZone registers a zone spec. The root zone (".") must be included.
func (b *Builder) AddZone(spec ZoneSpec) *Builder {
	s := spec
	b.specs[spec.Apex] = &s
	return b
}

// nsHost returns the zone's name server host: the spec override or the
// conventional in-bailiwick "ns.<apex>".
func (s *ZoneSpec) nsHost() dnswire.Name {
	if s.NSHost != "" {
		return s.NSHost
	}
	if s.Apex.IsRoot() {
		return dnswire.MustParseName("ns.root-servers.invalid")
	}
	return s.Apex.MustChild("ns")
}

// parentOf finds the deepest registered proper ancestor of apex by
// walking up the name, so building stays O(zones × depth).
func (b *Builder) parentOf(apex dnswire.Name) (*ZoneSpec, bool) {
	for cur := apex.Parent(); ; cur = cur.Parent() {
		if spec, ok := b.specs[cur]; ok {
			return spec, true
		}
		if cur.IsRoot() {
			return nil, false
		}
	}
}

// rawZone materializes a spec's unsigned zone: SOA, apex NS,
// in-bailiwick glue, then the spec's own data records.
func (b *Builder) rawZone(spec *ZoneSpec) *zone.Zone {
	z := zone.New(spec.Apex, b.TTL)
	ns := spec.nsHost()
	z.MustAdd(dnswire.RR{Name: spec.Apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOA{
		MName: ns, RName: spec.Apex.MustChild("hostmaster"),
		Serial: 2024030501, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}})
	z.MustAdd(dnswire.RR{Name: spec.Apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: ns}})
	if ns.IsSubdomainOf(spec.Apex) {
		z.MustAdd(dnswire.RR{Name: ns, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.A{Addr: spec.Server.Addr()}})
		if spec.ServerV6.IsValid() {
			z.MustAdd(dnswire.RR{Name: ns, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.AAAA{Addr: spec.ServerV6.Addr()}})
		}
	}
	if spec.Populate != nil {
		spec.Populate(z)
	}
	return z
}

// signConfig resolves a spec's signing config against the builder's
// default validity window.
func (b *Builder) signConfig(spec *ZoneSpec) zone.SignConfig {
	cfg := spec.Sign
	if cfg.Inception == 0 {
		cfg.Inception, cfg.Expiration = b.Inception, b.Expiration
	}
	return cfg
}

// publishedDS applies the spec's delegation-sabotage options to the DS
// the parent would publish: OmitDS withholds it, BreakDS flips a digest
// byte so it matches no real key. The child's own keys and signatures
// are untouched — only the parent's view of them changes.
func (s *ZoneSpec) publishedDS(ds *dnswire.DS) *dnswire.DS {
	if ds == nil || s.Unsigned {
		return ds
	}
	if s.OmitDS {
		return nil
	}
	if s.BreakDS {
		broken := *ds
		broken.Digest = append([]byte(nil), ds.Digest...)
		if len(broken.Digest) > 0 {
			broken.Digest[0] ^= 0xFF
		}
		return &broken
	}
	return ds
}

// delegationRRs builds the records the parent publishes for a child:
// NS, in-bailiwick glue, and (for signed children) the DS.
func delegationRRs(spec *ZoneSpec, ds *dnswire.DS) []dnswire.RR {
	ns := spec.nsHost()
	rrs := []dnswire.RR{{Name: spec.Apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: ns}}}
	if ns.IsSubdomainOf(spec.Apex) {
		// In-bailiwick host: publish glue in the parent.
		rrs = append(rrs, dnswire.RR{Name: ns, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.A{Addr: spec.Server.Addr()}})
		if spec.ServerV6.IsValid() {
			rrs = append(rrs, dnswire.RR{Name: ns, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.AAAA{Addr: spec.ServerV6.Addr()}})
		}
	}
	if ds != nil {
		rrs = append(rrs, dnswire.RR{Name: spec.Apex, Class: dnswire.ClassIN, TTL: 3600, Data: *ds})
	}
	return rrs
}

// zonePlan is a zone as Build plans it: its keys are resolved (the DS
// in the parent came from them), its records and signatures don't exist
// until sign runs.
type zonePlan struct {
	spec *ZoneSpec
	cfg  zone.SignConfig
	// cache is the builder's SignCache when the zone is Shared and
	// signed, nil otherwise: the one place that decision is made.
	cache *SignCache
	// delegations are the child NS/glue/DS sets deeper zones installed
	// during planning, applied when the raw zone is constructed.
	delegations []dnswire.RR
}

// Build plans every zone deepest-first — keys and DS now, delegation
// (NS + glue + DS) appended to the parent's plan, content and
// signatures deferred to the plan's sign thunk — then registers
// authoritative servers on net and returns the hierarchy with the root
// trust anchor. Building eagerly runs each thunk here and makes every
// signature; with WithLazySigning only the root's runs, every other
// zone's is handed to its server to run on first query, and signatures
// are made as answers carry them.
func (b *Builder) Build(net *netsim.Network) (*Hierarchy, error) {
	rootSpec, ok := b.specs[dnswire.Root]
	if !ok {
		return nil, fmt.Errorf("testbed: hierarchy needs a root zone")
	}
	if rootSpec.Unsigned {
		return nil, fmt.Errorf("testbed: root must be signed")
	}
	// Deepest zones first so DS records exist before parents are planned.
	order := make([]*ZoneSpec, 0, len(b.specs))
	plans := make(map[dnswire.Name]*zonePlan, len(b.specs))
	for _, s := range b.specs {
		order = append(order, s)
		plans[s.Apex] = &zonePlan{spec: s}
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := order[i].Apex.CountLabels(), order[j].Apex.CountLabels()
		if di != dj {
			return di > dj
		}
		return order[i].Apex < order[j].Apex
	})

	h := &Hierarchy{
		Net:     net,
		Zones:   make(map[dnswire.Name]*zone.Signed),
		Servers: make(map[netip.AddrPort]*authserver.Server),
		Log:     authserver.NewQueryLog(1 << 16),
		hosts:   make(map[dnswire.Name]*authserver.Server, len(b.specs)),
	}

	for _, spec := range order {
		ds, err := b.resolveKeys(plans[spec.Apex])
		if err != nil {
			return nil, err
		}
		if spec.Apex.IsRoot() {
			h.TrustAnchor = []dnswire.DS{*ds}
		} else if parent, ok := b.parentOf(spec.Apex); ok {
			pp := plans[parent.Apex]
			pp.delegations = append(pp.delegations, delegationRRs(spec, spec.publishedDS(ds))...)
		}
	}

	// Attach zones (or their thunks) to servers and register on the
	// network.
	for _, spec := range order {
		srv, ok := h.Servers[spec.Server]
		if !ok {
			srv = authserver.New()
			srv.Log = h.Log
			h.Servers[spec.Server] = srv
			net.Register(spec.Server, srv)
		}
		if spec.ServerV6.IsValid() {
			net.Register(spec.ServerV6, srv)
		}
		h.hosts[spec.Apex] = srv
		plan := plans[spec.Apex]
		sign := func() (*zone.Signed, error) { return b.sign(h, plan) }
		// The root is materialized even under WithLazySigning: it is
		// the one zone every resolution crosses.
		if b.lazy && !spec.Apex.IsRoot() {
			srv.AddLazyZone(spec.Apex, sign)
			continue
		}
		sz, err := sign()
		if err != nil {
			return nil, err
		}
		if !spec.Unsigned {
			h.Zones[spec.Apex] = sz
		}
		srv.AddZone(sz)
	}

	h.Roots = []netip.AddrPort{rootSpec.Server}
	if rootSpec.ServerV6.IsValid() {
		h.Roots = append(h.Roots, rootSpec.ServerV6)
	}
	return h, nil
}

// resolveKeys fixes a planned zone's signing config and returns the DS
// its KSK yields (nil for an Unsigned zone, which is served without any
// DNSSEC material: no DNSKEYs, no RRSIGs, no denial records). Keys now,
// signatures later: a delegation's DS depends only on the child's KSK
// (RFC 4034 §5), so the chain of trust is complete before any zone
// signs. Shared zones take their keys from the SignCache, so repeated
// builds publish the same DS; any other zone gets its KSK here and its
// ZSK when it is signed, if it ever is.
func (b *Builder) resolveKeys(p *zonePlan) (*dnswire.DS, error) {
	apex := p.spec.Apex
	if p.spec.Unsigned {
		p.cfg = zone.SignConfig{Denial: zone.DenialNone}
		return nil, nil
	}
	p.cfg = b.signConfig(p.spec)
	if b.cache != nil && p.spec.Shared {
		p.cache = b.cache
	}
	var err error
	if p.cache != nil {
		var keys cachedKeys
		if keys, err = p.cache.keysFor(apex, signAlg(p.cfg)); err != nil {
			return nil, fmt.Errorf("testbed: keys for %s: %w", apex, err)
		}
		p.cfg.KSK, p.cfg.ZSK = keys.ksk, keys.zsk
	} else if p.cfg.KSK, err = dnssec.GenerateKey(signAlg(p.cfg), true, nil); err != nil {
		return nil, fmt.Errorf("testbed: keys for %s: %w", apex, err)
	}
	ds, err := dnssec.NewDS(apex, p.cfg.KSK.DNSKEY(), dnswire.DigestSHA256)
	if err != nil {
		return nil, fmt.Errorf("testbed: DS for %s: %w", apex, err)
	}
	return &ds, nil
}

// sign is a planned zone's thunk, the only place a zone is built and
// signed: construct the raw zone (including the delegations deeper
// zones installed during planning), then prepare it for signed serving
// with the keys resolveKeys fixed — through the SignCache for Shared
// zones, so identical content across builds is prepared once and keeps
// the signatures earlier builds' answers made. What a zone serves is
// fixed per zone, not per order of arrival: KSK and records were fixed
// at plan time, so a lazy hierarchy validates exactly as an eager one.
func (b *Builder) sign(h *Hierarchy, p *zonePlan) (*zone.Signed, error) {
	z := b.rawZone(p.spec)
	for _, rr := range p.delegations {
		z.MustAdd(rr)
	}
	var (
		sz  *zone.Signed
		hit bool
		err error
	)
	if p.cache != nil {
		sz, hit, err = p.cache.sign(z, p.cfg)
	} else {
		sz, err = z.SignOnDemand(p.cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("testbed: signing %s: %w", p.spec.Apex, err)
	}
	if p.spec.Unsigned {
		return sz, nil // served, not signed: no signing work to count
	}
	hs := hostedSigs{sz: sz, hit: hit}
	if hit {
		h.reused.Add(1)
		hs.before, _ = sz.SigStats()
	} else {
		h.signed.Add(1)
	}
	h.mu.Lock()
	h.sigs = append(h.sigs, hs)
	h.mu.Unlock()
	if !b.lazy {
		// An eager hierarchy serves zones whose every signature
		// exists; a lazy one leaves each to the first answer it is on.
		if err := sz.SignAll(); err != nil {
			return nil, fmt.Errorf("testbed: signing %s: %w", p.spec.Apex, err)
		}
	}
	return sz, nil
}
