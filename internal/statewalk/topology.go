// Package statewalk treats the resolver as an explorable state machine
// (after Nevatia et al.'s DNS reachability analysis): a deterministic
// enumerator composes delegation/CNAME/DS corner topologies, a
// declarative expectation model predicts the (RCODE, AD, EDE) triple
// Nosyk et al. use to classify validators remotely, and a differential
// runner executes every (topology × respop profile) cell through the
// real resolver over netsim and reports every divergence. Each topology
// family is one row of the shapes table: its iteration grid, its probe,
// its zones and the columns the model reads. Scenario diversity comes
// from systematic enumeration instead of hand-written cases; any
// divergence fails the run, and is mended either in the resolver or in
// the model.
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

// status is what a validator concludes of a cell's answer before the
// iteration policy is consulted.
type status int

const (
	secure status = iota
	insecure
	bogus
	unresolvable // resolution never reaches an answer
)

// shape is one delegation/CNAME/DS corner topology family: everything
// the enumerator, the world builder and the expectation model know of
// it.
type shape struct {
	name string
	// iters lists the iteration counts enumerated: both sides of every
	// vendor limit (50/100/150), the RFC 5155 §10.3 cap, and zero. A
	// shape with one count leaves it out of its topology's ID.
	iters []uint16
	// probe is the queried name's labels below the apex, and qtype its
	// type. Names are fixed per topology: the runner gives every cell a
	// fresh resolver, so no cache busting is needed and traces stay
	// byte-identical across runs.
	probe string
	qtype dnswire.Type
	// zones edits the primary zone, which starts as defaultZone at the
	// apex, and returns any other zones the shape needs; nil keeps the
	// default alone.
	zones func(t TopologySpec, primary *testbed.ZoneSpec) []testbed.ZoneSpec

	// The model's columns. rcode is the RCODE the zone answers with;
	// negative says the answer is NXDOMAIN or NODATA; judged says it
	// carries an NSEC3 proof at the topology's count, which the
	// iteration policy judges; within is the status when no limit
	// fires.
	rcode    dnswire.RCode
	negative bool
	judged   bool
	within   status
}

// shapes is the enumerated space, in Enumerate's order.
var shapes = []shape{
	{
		// Signed zone, existing name: the positive secure baseline (no
		// denial proof, so even strict-zero boxes validate).
		name: "exists", iters: []uint16{0}, probe: "www", qtype: dnswire.TypeA,
		rcode: dnswire.RCodeNoError, within: secure,
	},
	{
		// Signed NSEC3 zone at N iterations, nonexistent name: the
		// paper's it-N probe as an NXDOMAIN denial (www exists, gone.www
		// does not, and no wildcard matches).
		name: "secure-nx", iters: []uint16{0, 50, 51, 100, 101, 150, 151, 2500, 2501},
		probe: "gone.www", qtype: dnswire.TypeA,
		rcode: dnswire.RCodeNXDomain, negative: true, judged: true, within: secure,
	},
	{
		// An apex wildcard: a positive answer that still carries an
		// NSEC3 proof (RFC 5155 §8.8), so the iteration policy applies
		// to a NOERROR response. A validated expansion keeps AD even for
		// negative-AD strippers.
		name: "wildcard", iters: []uint16{0, 51, 101, 151, 2501}, probe: "probe", qtype: dnswire.TypeA,
		zones: edit(func(p *testbed.ZoneSpec) {
			p.Populate = func(z *zone.Zone) { www(z); addA(z, z.Apex.Wildcard()) }
		}),
		rcode: dnswire.RCodeNoError, judged: true, within: secure,
	},
	{
		// Existing name, absent type: the NODATA denial.
		name: "nodata", iters: []uint16{0, 151}, probe: "www", qtype: dnswire.TypeTXT,
		rcode: dnswire.RCodeNoError, negative: true, judged: true, within: secure,
	},
	{
		// Plain-NSEC zone: authenticated denial with no iteration count
		// at all, so NSEC3 limits cannot fire.
		name: "nsec-denial", iters: []uint16{0}, probe: "gone.www", qtype: dnswire.TypeA,
		zones: edit(func(p *testbed.ZoneSpec) { p.Sign = zone.SignConfig{Denial: zone.DenialNSEC} }),
		rcode: dnswire.RCodeNXDomain, negative: true, within: secure,
	},
	{
		// Unsigned child of a signed parent: the ordinary insecure
		// delegation.
		name: "unsigned-delegation", iters: []uint16{0}, probe: "gone.www", qtype: dnswire.TypeA,
		zones: edit(func(p *testbed.ZoneSpec) { p.Unsigned = true }),
		rcode: dnswire.RCodeNXDomain, negative: true, within: insecure,
	},
	{
		// The parent publishes a DS matching no key in the signed child:
		// a verifiably broken chain, bogus and not insecure.
		name: "broken-ds", iters: []uint16{0}, probe: "www", qtype: dnswire.TypeA,
		zones: edit(func(p *testbed.ZoneSpec) { p.BreakDS = true }),
		rcode: dnswire.RCodeNoError, within: bogus,
	},
	{
		// The child signs but the parent withholds the DS: authenticated
		// denial of DS makes the zone insecure, and its NSEC3 iteration
		// count must never reach the policy, even above a SERVFAIL
		// limit.
		name: "omitted-ds", iters: []uint16{0, 151}, probe: "gone.www", qtype: dnswire.TypeA,
		zones: edit(func(p *testbed.ZoneSpec) { p.OmitDS = true }),
		rcode: dnswire.RCodeNXDomain, negative: true, within: insecure,
	},
	{
		// Every RRSIG in the zone is expired.
		name: "expired-all", iters: []uint16{0}, probe: "www", qtype: dnswire.TypeA,
		zones: edit(func(p *testbed.ZoneSpec) { p.Sign.ExpireAll = true }),
		rcode: dnswire.RCodeNoError, within: bogus,
	},
	{
		// Only the NSEC3 RRSIGs are expired: the Item 7 probe
		// (it-2501-expired generalized across the limits). Compliant
		// validators authenticate the records on every path that trusts
		// them, so the insecure downgrade goes bogus too; violators
		// serve the downgrade. Above a SERVFAIL limit the signatures are
		// never consulted.
		name: "expired-denial", iters: []uint16{0, 151, 2501}, probe: "gone.www", qtype: dnswire.TypeA,
		zones: edit(func(p *testbed.ZoneSpec) { p.Sign.ExpireDenialSigs = true }),
		rcode: dnswire.RCodeNXDomain, negative: true, judged: true, within: bogus,
	},
	{
		// A signed grandchild below an unsigned middle zone: the leaf's
		// DS lives in a zone that cannot authenticate it.
		name: "insecure-island", iters: []uint16{0}, probe: "gone.www.island", qtype: dnswire.TypeA,
		zones: func(t TopologySpec, p *testbed.ZoneSpec) []testbed.ZoneSpec {
			p.Unsigned, p.Populate = true, nil
			return []testbed.ZoneSpec{t.defaultZone(p.Apex.MustChild("island"))}
		},
		rcode: dnswire.RCodeNXDomain, negative: true, within: insecure,
	},
	{
		// Two zones whose only NS host lives in the other, with no glue
		// anywhere: chasing either delegation recurses into the other
		// until the resolver's depth limit trips.
		name: "delegation-loop", iters: []uint16{0}, probe: "www", qtype: dnswire.TypeA,
		zones: func(t TopologySpec, p *testbed.ZoneSpec) []testbed.ZoneSpec {
			partner := t.defaultZone(t.partnerApex())
			p.NSHost, p.Populate = partner.Apex.MustChild("ns"), nil
			partner.NSHost, partner.Populate = p.Apex.MustChild("ns"), nil
			return []testbed.ZoneSpec{partner}
		},
		within: unresolvable,
	},
	{
		// An alias in a compliant zone targeting a nonexistent name in a
		// zone at N iterations: the policy judges the chase target's
		// denial, and its outcome must survive the chase.
		name: "cname-chain", iters: []uint16{0, 151}, probe: "alias", qtype: dnswire.TypeA,
		zones: func(t TopologySpec, p *testbed.ZoneSpec) []testbed.ZoneSpec {
			target := t.defaultZone(t.partnerApex())
			p.Sign.NSEC3.Iterations = 0
			p.Populate = func(z *zone.Zone) {
				addCNAME(z, z.Apex.MustChild("alias"), target.Apex.MustChild("www").MustChild("gone"))
			}
			return []testbed.ZoneSpec{target}
		},
		rcode: dnswire.RCodeNXDomain, negative: true, judged: true, within: secure,
	},
	{
		// Two aliases targeting each other.
		name: "cname-loop", iters: []uint16{0}, probe: "loop1", qtype: dnswire.TypeA,
		zones: edit(func(p *testbed.ZoneSpec) {
			p.Populate = func(z *zone.Zone) {
				addCNAME(z, z.Apex.MustChild("loop1"), z.Apex.MustChild("loop2"))
				addCNAME(z, z.Apex.MustChild("loop2"), z.Apex.MustChild("loop1"))
			}
		}),
		within: unresolvable,
	},
	{
		// DS query at an insecure delegation excluded from an Opt-Out
		// NSEC3 chain (RFC 5155 §8.6): a NODATA whose proof the
		// iteration policy judges first; within limits the Opt-Out proof
		// yields insecure. The delegated zone shares the primary's
		// server, so its apex DS query is answered by the hosted parent.
		name: "optout-nods", iters: []uint16{0, 151}, probe: "ins", qtype: dnswire.TypeDS,
		zones: func(_ TopologySpec, p *testbed.ZoneSpec) []testbed.ZoneSpec {
			p.Sign.OptOut = true
			return []testbed.ZoneSpec{{Apex: p.Apex.MustChild("ins"), Unsigned: true}}
		},
		rcode: dnswire.RCodeNoError, negative: true, judged: true, within: insecure,
	},
}

// TopologySpec is one enumerated topology: index-pure (the spec is a
// function of its index alone), realized through testbed.Builder.
type TopologySpec struct {
	// Index is the topology's position in Enumerate's order.
	Index int
	// Iterations is the NSEC3 iteration count of the zone whose denial
	// the policy judges (for a CNAME chain, the chase target's zone).
	Iterations uint16
	// shape is the topology's row in shapes.
	shape *shape
}

// Enumerate returns every topology in its canonical order. The list is
// a pure function: Enumerate()[i].Index == i on every call, which the
// cell golden (testdata/cells-seed7.ndjson) relies on.
func Enumerate() []TopologySpec {
	var out []TopologySpec
	for i := range shapes {
		for _, it := range shapes[i].iters {
			out = append(out, TopologySpec{Index: len(out), Iterations: it, shape: &shapes[i]})
		}
	}
	return out
}

// ID is the topology's stable identifier, carried in every record.
func (t TopologySpec) ID() string {
	if len(t.shape.iters) > 1 {
		return fmt.Sprintf("t%02d-%s-it%d", t.Index, t.shape.name, t.Iterations)
	}
	return fmt.Sprintf("t%02d-%s", t.Index, t.shape.name)
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

// Probe returns the cell's single query.
func (t TopologySpec) Probe() (dnswire.Name, dnswire.Type) {
	return dnswire.MustParseName(t.shape.probe + "." + string(t.Apex())), t.shape.qtype
}

// defaultZone is a zone at apex signed with NSEC3 at the topology's
// count and holding www.
func (t TopologySpec) defaultZone(apex dnswire.Name) testbed.ZoneSpec {
	return testbed.ZoneSpec{Apex: apex, Populate: www,
		Sign: zone.SignConfig{Denial: zone.DenialNSEC3, NSEC3: nsec3.Params{Iterations: t.Iterations}}}
}

// install adds the topology's zones to the builder. All topology zones
// share one server so DS-at-apex queries route to the hosted parent.
func (t TopologySpec) install(b *testbed.Builder, server netip.AddrPort) {
	primary := t.defaultZone(t.Apex())
	var more []testbed.ZoneSpec
	if t.shape.zones != nil {
		more = t.shape.zones(t, &primary)
	}
	for _, z := range append([]testbed.ZoneSpec{primary}, more...) {
		z.Server = server
		b.AddZone(z)
	}
}

// edit is a zones column that only edits the primary zone.
func edit(f func(primary *testbed.ZoneSpec)) func(TopologySpec, *testbed.ZoneSpec) []testbed.ZoneSpec {
	return func(_ TopologySpec, p *testbed.ZoneSpec) []testbed.ZoneSpec {
		f(p)
		return nil
	}
}

// www adds the A record every default zone holds.
func www(z *zone.Zone) { addA(z, z.Apex.MustChild("www")) }

func addA(z *zone.Zone, name dnswire.Name) {
	z.MustAdd(dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.80")}})
}

func addCNAME(z *zone.Zone, name, target dnswire.Name) {
	z.MustAdd(dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.CNAME{Target: target}})
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
