// Package statewalk treats the resolver as an explorable state machine
// (after Nevatia et al.'s DNS reachability analysis): a deterministic
// enumerator composes delegation/CNAME/DS corner topologies, a
// declarative expectation model predicts the (RCODE, AD, EDE) triple
// Nosyk et al. use to classify validators remotely, and a differential
// runner executes every (topology × respop profile) cell through the
// real resolver over netsim and reports every divergence. Scenario
// diversity comes from systematic enumeration instead of hand-written
// cases; any divergence fails the run, and is mended either in the
// resolver or in the model.
package statewalk

import (
	"fmt"
	"net/netip"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/nsec3"
	"repro/internal/testbed"
	"repro/internal/zone"
)

// Shape names one delegation/CNAME/DS corner topology family.
type Shape string

// The enumerated shapes.
const (
	// ShapeExists: signed zone, existing name — positive secure
	// baseline (no denial proof, so even strict-zero boxes validate).
	ShapeExists Shape = "exists"
	// ShapeSecureNX: signed NSEC3 zone at N iterations, nonexistent
	// name — the paper's it-N probe as an NXDOMAIN denial.
	ShapeSecureNX Shape = "secure-nx"
	// ShapeWildcard: signed zone with an apex wildcard — a positive
	// answer that still carries an NSEC3 proof (RFC 5155 §8.8), so the
	// iteration policy applies to a NOERROR response.
	ShapeWildcard Shape = "wildcard"
	// ShapeNodata: existing name, absent type — the NODATA denial.
	ShapeNodata Shape = "nodata"
	// ShapeNSECDenial: plain-NSEC zone — authenticated denial with no
	// iteration count at all; NSEC3 limits must not fire.
	ShapeNSECDenial Shape = "nsec-denial"
	// ShapeUnsignedDelegation: unsigned child of a signed parent — the
	// ordinary insecure delegation.
	ShapeUnsignedDelegation Shape = "unsigned-delegation"
	// ShapeBrokenDS: the parent publishes a DS matching no key in the
	// signed child — a verifiably broken chain (bogus, not insecure).
	ShapeBrokenDS Shape = "broken-ds"
	// ShapeOmittedDS: the child signs but the parent withholds the DS —
	// authenticated denial of DS makes the zone insecure, and its NSEC3
	// iteration count must never reach the policy.
	ShapeOmittedDS Shape = "omitted-ds"
	// ShapeExpiredAll: every RRSIG in the zone is expired.
	ShapeExpiredAll Shape = "expired-all"
	// ShapeExpiredDenial: only the NSEC3 RRSIGs are expired — the
	// Item 7 probe (it-2501-expired generalized across the limits).
	ShapeExpiredDenial Shape = "expired-denial"
	// ShapeInsecureIsland: a signed grandchild below an unsigned
	// middle zone — its own DNSSEC material is unreachable from the
	// trust anchor.
	ShapeInsecureIsland Shape = "insecure-island"
	// ShapeDelegationLoop: two zones whose glue-less NS records point
	// into each other — resolution can never bottom out.
	ShapeDelegationLoop Shape = "delegation-loop"
	// ShapeCNAMEChain: an alias in a compliant zone targeting a
	// nonexistent name in a zone at N iterations — the policy outcome
	// must survive the chase.
	ShapeCNAMEChain Shape = "cname-chain"
	// ShapeCNAMELoop: two aliases targeting each other.
	ShapeCNAMELoop Shape = "cname-loop"
	// ShapeOptOutNoDS: DS query at an insecure delegation excluded
	// from an Opt-Out NSEC3 chain (RFC 5155 §8.6) — a NODATA whose
	// proof the iteration policy still sees.
	ShapeOptOutNoDS Shape = "optout-nods"
)

// TopologySpec is one enumerated topology: index-pure (the spec is a
// function of its index alone), realized through testbed.Builder.
type TopologySpec struct {
	// Index is the topology's position in Enumerate's order.
	Index int
	// Shape selects the corner-case family.
	Shape Shape
	// Iterations is the NSEC3 iteration count of the zone whose denial
	// the policy judges (for ShapeCNAMEChain, the chase target's zone).
	// Zero for shapes where no NSEC3 proof is ever consulted.
	Iterations uint16
}

// iterationGrids lists, per shape, the iteration counts enumerated:
// both sides of every vendor limit (50/100/150), the RFC 5155 §10.3
// cap, and zero. Shapes absent here enumerate a single topology.
var iterationGrids = []struct {
	shape Shape
	iters []uint16
}{
	{ShapeExists, []uint16{0}},
	{ShapeSecureNX, []uint16{0, 50, 51, 100, 101, 150, 151, 2500, 2501}},
	{ShapeWildcard, []uint16{0, 51, 101, 151, 2501}},
	{ShapeNodata, []uint16{0, 151}},
	{ShapeNSECDenial, []uint16{0}},
	{ShapeUnsignedDelegation, []uint16{0}},
	{ShapeBrokenDS, []uint16{0}},
	{ShapeOmittedDS, []uint16{0, 151}},
	{ShapeExpiredAll, []uint16{0}},
	{ShapeExpiredDenial, []uint16{0, 151, 2501}},
	{ShapeInsecureIsland, []uint16{0}},
	{ShapeDelegationLoop, []uint16{0}},
	{ShapeCNAMEChain, []uint16{0, 151}},
	{ShapeCNAMELoop, []uint16{0}},
	{ShapeOptOutNoDS, []uint16{0, 151}},
}

// Enumerate returns every topology in its canonical order. The list is
// a pure function: Enumerate()[i].Index == i on every call, which the
// cell golden (testdata/cells-seed7.ndjson) relies on.
func Enumerate() []TopologySpec {
	var out []TopologySpec
	for _, g := range iterationGrids {
		for _, it := range g.iters {
			out = append(out, TopologySpec{Index: len(out), Shape: g.shape, Iterations: it})
		}
	}
	return out
}

// hasIterations reports whether the shape's identity includes an
// iteration count (more than one grid entry).
func (t TopologySpec) hasIterations() bool {
	for _, g := range iterationGrids {
		if g.shape == t.Shape {
			return len(g.iters) > 1
		}
	}
	return false
}

// ID is the topology's stable identifier, carried in every record.
func (t TopologySpec) ID() string {
	if t.hasIterations() {
		return fmt.Sprintf("t%02d-%s-it%d", t.Index, t.Shape, t.Iterations)
	}
	return fmt.Sprintf("t%02d-%s", t.Index, t.Shape)
}

// Apex is the topology's primary zone under the test TLD.
func (t TopologySpec) Apex() dnswire.Name {
	return dnswire.MustParseName(fmt.Sprintf("swt%02d.test", t.Index))
}

// partnerApex is the auxiliary zone some shapes need (loop partner,
// CNAME chase target).
func (t TopologySpec) partnerApex() dnswire.Name {
	return dnswire.MustParseName(fmt.Sprintf("swt%02dx.test", t.Index))
}

// Probe returns the cell's single query. Names are fixed per topology:
// the runner gives every cell a fresh resolver, so no cache busting is
// needed and traces stay byte-identical across runs.
func (t TopologySpec) Probe() (dnswire.Name, dnswire.Type) {
	apex := t.Apex()
	switch t.Shape {
	case ShapeExists, ShapeBrokenDS, ShapeExpiredAll:
		return apex.MustChild("www"), dnswire.TypeA
	case ShapeWildcard:
		return apex.MustChild("probe"), dnswire.TypeA
	case ShapeNodata:
		return apex.MustChild("www"), dnswire.TypeTXT
	case ShapeInsecureIsland:
		return apex.MustChild("island").MustChild("www").MustChild("gone"), dnswire.TypeA
	case ShapeDelegationLoop:
		return apex.MustChild("www"), dnswire.TypeA
	case ShapeCNAMEChain:
		return apex.MustChild("alias"), dnswire.TypeA
	case ShapeCNAMELoop:
		return apex.MustChild("loop1"), dnswire.TypeA
	case ShapeOptOutNoDS:
		return apex.MustChild("ins"), dnswire.TypeDS
	default:
		// The NXDOMAIN probes: www exists, gone.www does not, and no
		// wildcard matches — an authenticated denial.
		return apex.MustChild("www").MustChild("gone"), dnswire.TypeA
	}
}

// install adds the topology's zones to the builder. All topology zones
// share one server so DS-at-apex queries route to the hosted parent
// (the authserver behaviour ShapeOptOutNoDS depends on).
func (t TopologySpec) install(b *testbed.Builder, server netip.AddrPort) {
	apex := t.Apex()
	www := func(z *zone.Zone) {
		z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("www"), Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.80")}})
	}
	nsec3Sign := func(iters uint16) zone.SignConfig {
		return zone.SignConfig{Denial: zone.DenialNSEC3, NSEC3: nsec3.Params{Iterations: iters}}
	}
	switch t.Shape {
	case ShapeWildcard:
		b.AddZone(testbed.ZoneSpec{Apex: apex, Server: server, Sign: nsec3Sign(t.Iterations),
			Populate: func(z *zone.Zone) {
				www(z)
				z.MustAdd(dnswire.RR{Name: z.Apex.Wildcard(), Class: dnswire.ClassIN, TTL: 300,
					Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.80")}})
			}})
	case ShapeNSECDenial:
		b.AddZone(testbed.ZoneSpec{Apex: apex, Server: server,
			Sign: zone.SignConfig{Denial: zone.DenialNSEC}, Populate: www})
	case ShapeUnsignedDelegation:
		b.AddZone(testbed.ZoneSpec{Apex: apex, Server: server, Unsigned: true, Populate: www})
	case ShapeBrokenDS:
		b.AddZone(testbed.ZoneSpec{Apex: apex, Server: server, BreakDS: true,
			Sign: nsec3Sign(0), Populate: www})
	case ShapeOmittedDS:
		b.AddZone(testbed.ZoneSpec{Apex: apex, Server: server, OmitDS: true,
			Sign: nsec3Sign(t.Iterations), Populate: www})
	case ShapeExpiredAll:
		cfg := nsec3Sign(0)
		cfg.ExpireAll = true
		b.AddZone(testbed.ZoneSpec{Apex: apex, Server: server, Sign: cfg, Populate: www})
	case ShapeExpiredDenial:
		cfg := nsec3Sign(t.Iterations)
		cfg.ExpireDenialSigs = true
		b.AddZone(testbed.ZoneSpec{Apex: apex, Server: server, Sign: cfg, Populate: www})
	case ShapeInsecureIsland:
		// Unsigned middle, signed leaf: the leaf's DS lives in a zone
		// that cannot authenticate it.
		b.AddZone(testbed.ZoneSpec{Apex: apex, Server: server, Unsigned: true})
		b.AddZone(testbed.ZoneSpec{Apex: apex.MustChild("island"), Server: server,
			Sign: nsec3Sign(0), Populate: www})
	case ShapeDelegationLoop:
		// Each zone's only NS host lives in the other zone, with no
		// glue anywhere: chasing either delegation recurses into the
		// other until the resolver's depth limit trips.
		partner := t.partnerApex()
		b.AddZone(testbed.ZoneSpec{Apex: apex, Server: server,
			NSHost: partner.MustChild("ns"), Sign: nsec3Sign(0)})
		b.AddZone(testbed.ZoneSpec{Apex: partner, Server: server,
			NSHost: apex.MustChild("ns"), Sign: nsec3Sign(0)})
	case ShapeCNAMEChain:
		target := t.partnerApex()
		b.AddZone(testbed.ZoneSpec{Apex: apex, Server: server, Sign: nsec3Sign(0),
			Populate: func(z *zone.Zone) {
				z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("alias"), Class: dnswire.ClassIN, TTL: 300,
					Data: dnswire.CNAME{Target: target.MustChild("www").MustChild("gone")}})
			}})
		b.AddZone(testbed.ZoneSpec{Apex: target, Server: server,
			Sign: nsec3Sign(t.Iterations), Populate: www})
	case ShapeCNAMELoop:
		b.AddZone(testbed.ZoneSpec{Apex: apex, Server: server, Sign: nsec3Sign(0),
			Populate: func(z *zone.Zone) {
				z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("loop1"), Class: dnswire.ClassIN, TTL: 300,
					Data: dnswire.CNAME{Target: z.Apex.MustChild("loop2")}})
				z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("loop2"), Class: dnswire.ClassIN, TTL: 300,
					Data: dnswire.CNAME{Target: z.Apex.MustChild("loop1")}})
			}})
	case ShapeOptOutNoDS:
		cfg := nsec3Sign(t.Iterations)
		cfg.OptOut = true
		b.AddZone(testbed.ZoneSpec{Apex: apex, Server: server, Sign: cfg, Populate: www})
		// The insecure delegation the Opt-Out span skips; same server,
		// so its apex DS query is answered by the hosted parent.
		b.AddZone(testbed.ZoneSpec{Apex: apex.MustChild("ins"), Server: server, Unsigned: true})
	default: // ShapeExists, ShapeSecureNX, ShapeNodata
		b.AddZone(testbed.ZoneSpec{Apex: apex, Server: server,
			Sign: nsec3Sign(t.Iterations), Populate: www})
	}
}

// Fixed infrastructure addresses.
var (
	rootAddr = netsim.Addr4(198, 41, 0, 4)
	tldAddr  = netsim.Addr4(192, 5, 6, 53)
	leafAddr = netsim.Addr4(203, 0, 113, 66)
)

// World is a built hierarchy hosting every enumerated topology.
type World struct {
	Hierarchy  *testbed.Hierarchy
	Topologies []TopologySpec
}

// BuildWorld realizes every topology under a root + "test" TLD
// hierarchy on a fresh simulated network. The TLD signs NSEC3 at zero
// iterations so no profile's limit ever fires on infrastructure zones;
// seed parameterizes the network and the keys (testbed.WithSeed), so
// one seed serves the same octets every build.
func BuildWorld(seed uint64) (*World, error) {
	topos := Enumerate()
	b := testbed.NewBuilder(core.DefaultInception, core.DefaultExpiration, testbed.WithSeed(seed))
	b.AddZone(testbed.ZoneSpec{
		Apex:   dnswire.Root,
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC},
		Server: rootAddr,
	})
	b.AddZone(testbed.ZoneSpec{
		Apex:   dnswire.MustParseName("test"),
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC3},
		Server: tldAddr,
	})
	for _, tp := range topos {
		tp.install(b, leafAddr)
	}
	h, err := b.Build(netsim.NewNetwork(seed))
	if err != nil {
		return nil, fmt.Errorf("statewalk: building world: %w", err)
	}
	return &World{Hierarchy: h, Topologies: topos}, nil
}
