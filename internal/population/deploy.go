package population

import (
	"fmt"
	"net/netip"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/nsec3"
	"repro/internal/testbed"
	"repro/internal/zone"
)

// Deployment records where the universe was materialized.
type Deployment struct {
	Universe  *Universe
	Hierarchy *testbed.Hierarchy
	// OperatorServers maps operator name to its shared server address.
	OperatorServers map[string]netip.AddrPort
	// TLDServers maps TLD name to its authoritative server address.
	TLDServers map[string]netip.AddrPort
}

// DeployOption tunes a deployment.
type DeployOption func(*deployOptions)

type deployOptions struct {
	cache *testbed.SignCache
	lazy  bool
}

// WithSignCache reuses signing keys and signed zones for the
// shard-independent infrastructure (root, TLD registry, operator
// zones) across repeated deployments — the sharded survey's loop.
// Domain zones are never cached.
func WithSignCache(c *testbed.SignCache) DeployOption {
	return func(o *deployOptions) { o.cache = c }
}

// WithLazySigning defers all signing to first use
// (testbed.WithLazySigning): each non-root zone is registered on its
// server as a spec plus a sign thunk, so a deployment's peak memory is
// O(zones the scanner actually touches) instead of O(universe), and a
// built zone makes each RRSIG when an answer first carries it.
// Transfer-open TLD zones stay lazy too — an AXFR request materializes
// its zone on demand and the transfer makes whatever signatures are
// still missing; callers that want a zone built ahead of its first
// query use Hierarchy.Materialize.
func WithLazySigning() DeployOption {
	return func(o *deployOptions) { o.lazy = true }
}

// signAlgorithm is the DNSSEC algorithm of every zone Deploy plants:
// Ed25519 (RFC 8080). What the survey reads of a zone — DNSKEY
// present, NSEC3PARAM, NS and a denial's NSEC3 records — does not
// depend on it, its scan resolver sets CD, and an Ed25519 signature
// costs about half a P-256 one. The testbed world of the resolver
// study keeps P-256, zone.Sign's default.
const signAlgorithm = dnswire.AlgEd25519

// signConfig maps a TLD's or a domain's DNSSEC parameters to the zone
// signing config that reproduces them; saltSeed makes the NSEC3 salt a
// function of the zone's position in the universe.
func signConfig(dnssec, hashed bool, iterations uint16, saltLen int, optOut bool, saltSeed uint64) zone.SignConfig {
	switch {
	case !dnssec:
		return zone.SignConfig{Denial: zone.DenialNone}
	case hashed:
		return zone.SignConfig{
			Algorithm: signAlgorithm,
			Denial:    zone.DenialNSEC3,
			NSEC3:     nsec3.Params{Iterations: iterations, Salt: deterministicSalt(saltLen, saltSeed)},
			OptOut:    optOut,
		}
	default:
		return zone.SignConfig{Algorithm: signAlgorithm, Denial: zone.DenialNSEC}
	}
}

// Deploy materializes the universe into real zones on a simulated
// network: the root, every TLD (all 1,449), one zone per registered
// domain hosted on its operator's shared name server, and one
// infrastructure zone per operator (ns1.<infra-domain> lives there, so
// delegations are glue-less and operator attribution via NS records
// works the way the paper's §5.1 aggregation does).
//
// Every domain zone gets: apex A, "www" A, and an MX — enough surface
// that a random-subdomain probe triggers a genuine negative response.
// Every key is derived from the universe's seed (testbed.WithSeed), so
// a deployment serves the same octets each time it is built.
func Deploy(u *Universe, net *netsim.Network, inception, expiration uint32, opts ...DeployOption) (*Deployment, error) {
	var o deployOptions
	for _, opt := range opts {
		opt(&o)
	}
	bopts := []testbed.BuilderOption{testbed.WithCache(o.cache), testbed.WithSeed(u.Config.Seed)}
	if o.lazy {
		bopts = append(bopts, testbed.WithLazySigning())
	}
	b := testbed.NewBuilder(inception, expiration, bopts...)
	b.AddZone(testbed.ZoneSpec{
		Apex:   dnswire.Root,
		Sign:   zone.SignConfig{Algorithm: signAlgorithm, Denial: zone.DenialNSEC},
		Shared: true,
		Server: netsim.Addr4(198, 41, 0, 4),
	})

	// TLD zones. Addresses 192.6.x.y.
	tldAddrs := make(map[string]netip.AddrPort, len(u.TLDs))
	for i, tld := range u.TLDs {
		addr := netsim.Addr4(192, 6, byte(i>>8), byte(i))
		tldAddrs[tld.Name] = addr
		apex, err := dnswire.FromLabels(tld.Name)
		if err != nil {
			return nil, err
		}
		cfg := signConfig(tld.DNSSEC, tld.NSEC3, tld.Iterations, tld.SaltLen, tld.OptOut, uint64(i)+1)
		b.AddZone(testbed.ZoneSpec{
			Apex: apex, Sign: cfg, Unsigned: !tld.DNSSEC, Shared: true, Server: addr,
		})
	}

	// Operator infrastructure zones and shared servers. 203.0.x.y.
	opServers := make(map[string]netip.AddrPort, len(u.Operators))
	idx := 0
	for _, op := range Operators() {
		addr := netsim.Addr4(203, 0, byte(idx>>8), byte(idx))
		idx++
		opServers[op.Name] = addr
		infraApex, err := dnswire.ParseName(op.InfraDomain)
		if err != nil {
			return nil, err
		}
		b.AddZone(testbed.ZoneSpec{
			Apex: infraApex,
			Populate: func(z *zone.Zone) {
				// The operator's name server host, resolvable by the
				// recursive resolver when chasing glue-less NS.
				z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("ns1"), Class: dnswire.ClassIN,
					TTL: 3600, Data: dnswire.A{Addr: addr.Addr()}})
			},
			Sign:   zone.SignConfig{Algorithm: signAlgorithm, Denial: zone.DenialNSEC},
			Shared: true,
			Server: addr,
		})
	}
	// Infra TLDs that are not in the universe's TLD table must still
	// resolve; ensure every infra domain's TLD exists as a zone.
	for _, op := range Operators() {
		infraApex := dnswire.MustParseName(op.InfraDomain)
		tld := infraApex.Parent()
		if _, ok := tldAddrs[tld.Labels()[0]]; !ok && !tld.IsRoot() {
			addr := netsim.Addr4(192, 7, 0, byte(len(tldAddrs)))
			tldAddrs[tld.Labels()[0]] = addr
			b.AddZone(testbed.ZoneSpec{
				Apex: tld, Sign: zone.SignConfig{Algorithm: signAlgorithm, Denial: zone.DenialNSEC}, Shared: true, Server: addr,
			})
		}
	}

	// Domain zones, one per spec, on the operator's server, with the
	// operator's NS host (glue-less, out-of-bailiwick).
	for i := range u.Domains {
		spec := &u.Domains[i]
		op := u.Operators[spec.Operator]
		nsHost := dnswire.MustParseName("ns1." + op.InfraDomain)
		cfg := signConfig(spec.DNSSEC, spec.NSEC3, spec.Iterations, spec.SaltLen, spec.OptOut, uint64(i)+7)
		b.AddZone(testbed.ZoneSpec{
			Apex:   spec.Name,
			NSHost: nsHost,
			Populate: func(z *zone.Zone) {
				webIP := dnswire.A{Addr: netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)})}
				z.MustAdd(dnswire.RR{Name: z.Apex, Class: dnswire.ClassIN, TTL: 300, Data: webIP})
				z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("www"), Class: dnswire.ClassIN, TTL: 300, Data: webIP})
				z.MustAdd(dnswire.RR{Name: z.Apex, Class: dnswire.ClassIN, TTL: 300,
					Data: dnswire.MX{Preference: 10, Host: z.Apex.MustChild("www")}})
			},
			Sign:     cfg,
			Unsigned: !spec.DNSSEC,
			Server:   opServers[spec.Operator],
		})
	}

	h, err := b.Build(net)
	if err != nil {
		return nil, fmt.Errorf("population: deploying universe: %w", err)
	}
	// Open AXFR on the TLDs that publish their zone data (CZDS/AXFR in
	// the paper's methodology); everything else refuses transfers.
	for _, tld := range u.TLDs {
		if !tld.OpenZoneData {
			continue
		}
		if srv, ok := h.Servers[tldAddrs[tld.Name]]; ok {
			apex, err := dnswire.FromLabels(tld.Name)
			if err != nil {
				return nil, err
			}
			srv.SetTransferPolicy(apex, zone.TransferOpen)
		}
	}
	return &Deployment{Universe: u, Hierarchy: h, OperatorServers: opServers, TLDServers: tldAddrs}, nil
}
