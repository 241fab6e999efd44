package testbed

import (
	"cmp"
	"context"
	"fmt"
	"net/netip"
	"slices"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/nsec3"
	"repro/internal/zone"
)

// TestbedDomain is the measurement domain the paper registered.
const TestbedDomain = "rfc9276-in-the-wild.com"

// Subdomain describes one of the crafted test subdomains.
type Subdomain struct {
	// Label under rfc9276-in-the-wild.com ("valid", "expired", "it-5",
	// "it-2501-expired").
	Label string
	// Iterations is the NSEC3 additional-iteration count of the zone.
	Iterations uint16
	// ExpireAll marks the fully expired zone ("expired").
	ExpireAll bool
	// ExpireDenial marks the zone whose NSEC3 RRSIGs are expired
	// ("it-2501-expired", probing Item 7).
	ExpireDenial bool
	// WantNXDOMAIN: the probe queries a non-existent name (the it-N
	// series); otherwise it queries a wildcard-synthesized name
	// (valid/expired).
	WantNXDOMAIN bool

	// apex and www are <label>.<domain> and www.<label>.<domain>, set
	// on the subdomains Subdomains returns so a probe name is one
	// Child away. A Subdomain built elsewhere has them empty, and its
	// methods parse its label instead.
	apex, www dnswire.Name
}

// Subdomains returns the paper's 49 test subdomains (§4.2) plus
// it-2501-expired: valid, expired, it-1…it-25, it-50…it-500 in steps of
// 25, and the limit successors it-51, it-101, it-151. The slice is the
// caller's.
func Subdomains() []Subdomain { return slices.Clone(subdomains) }

// subdomains is what Subdomains returns, built once.
var subdomains = buildSubdomains()

func buildSubdomains() []Subdomain {
	out := []Subdomain{
		{Label: "valid", Iterations: 0},
		{Label: "expired", Iterations: 0, ExpireAll: true},
	}
	add := func(n uint16) {
		out = append(out, Subdomain{
			Label:        fmt.Sprintf("it-%d", n),
			Iterations:   n,
			WantNXDOMAIN: true,
		})
	}
	for n := uint16(1); n <= 25; n++ {
		add(n)
	}
	for n := uint16(50); n <= 500; n += 25 {
		add(n)
	}
	for _, n := range []uint16{51, 101, 151} {
		add(n)
	}
	out = append(out, Subdomain{
		Label: "it-2501-expired", Iterations: 2501,
		ExpireDenial: true, WantNXDOMAIN: true,
	})
	for i := range out {
		out[i].apex = out[i].Apex()
		out[i].www = out[i].apex.MustChild("www")
	}
	return out
}

// QName returns the uniquely identifiable probe name for this
// subdomain: NXDOMAIN probes ask for <unique>.www.<label>.<domain>
// (www exists, so neither it nor the apex wildcard matches — an
// authenticated NXDOMAIN carrying the zone's NSEC3 parameters), while
// wildcard probes ask for <unique>.<label>.<domain> (synthesized from
// the apex wildcard, as the paper's cache-busting wildcard records
// provide).
func (s Subdomain) QName(unique string) dnswire.Name {
	if !s.WantNXDOMAIN {
		return s.Apex().MustChild(unique)
	}
	www := s.www
	if www == "" {
		www = s.Apex().MustChild("www")
	}
	return www.MustChild(unique)
}

// Apex returns the subdomain's zone apex.
func (s Subdomain) Apex() dnswire.Name {
	if s.apex != "" {
		return s.apex
	}
	return dnswire.MustParseName(s.Label + "." + TestbedDomain)
}

// InstallWorld adds the whole §4.2 infrastructure to a hierarchy
// builder: the root (NSEC) at 198.41.0.4, com (NSEC3 with opt-out) at
// 192.5.6.30, and on 203.0.113.10 and Addr6(0x10) ("reachable over
// both IPv4 and IPv6", §4.2) the rfc9276-in-the-wild.com zone plus one
// delegated, separately-signed child zone per subdomain (NSEC3
// parameters are per-zone state, so each iteration count needs its own
// zone). Every zone is identical across repeated builds, so all are
// Shared: a sign cache (when the builder has one) reuses each signed
// zone across shard worlds.
func InstallWorld(b *Builder) {
	b.AddZone(ZoneSpec{
		Apex:   dnswire.Root,
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC},
		Server: netsim.Addr4(198, 41, 0, 4),
		Shared: true,
	})
	b.AddZone(ZoneSpec{
		Apex:   dnswire.MustParseName("com"),
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC3, OptOut: true},
		Server: netsim.Addr4(192, 5, 6, 30),
		Shared: true,
	})
	server, server6 := netsim.Addr4(203, 0, 113, 10), netsim.Addr6(0x10)
	website := dnswire.A{Addr: netip.MustParseAddr("192.0.2.80")}
	b.AddZone(ZoneSpec{
		Apex: dnswire.MustParseName(TestbedDomain),
		Populate: func(z *zone.Zone) {
			// The opt-out/ethics website.
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("www"), Class: dnswire.ClassIN, TTL: 300, Data: website})
		},
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC3},
		Server: server, ServerV6: server6,
		Shared: true,
	})
	for _, sub := range subdomains {
		b.AddZone(ZoneSpec{
			Apex: sub.Apex(),
			Populate: func(z *zone.Zone) {
				// The website record, an existing leaf for NXDOMAIN
				// probes, and the per-resolver cache-busting wildcard.
				z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("www"), Class: dnswire.ClassIN, TTL: 300, Data: website})
				z.MustAdd(dnswire.RR{Name: z.Apex.Wildcard(), Class: dnswire.ClassIN, TTL: 300, Data: website})
			},
			Sign: zone.SignConfig{
				Denial:           zone.DenialNSEC3,
				NSEC3:            nsec3.Params{Iterations: sub.Iterations}, // never a salt (§4.2)
				ExpireAll:        sub.ExpireAll,
				ExpireDenialSigs: sub.ExpireDenial,
			},
			Server: server, ServerV6: server6,
			Shared: true,
		})
	}
}

// Observation is what the prober saw for one subdomain through one
// resolver — the raw material of Figure 3.
type Observation struct {
	Label      string
	Iterations uint16
	NXProbe    bool
	RCode      dnswire.RCode
	AD         bool
	RA         bool
	EDE        []dnswire.EDE
	Err        error
}

// Transcript is a resolver's complete probe run.
type Transcript struct {
	Resolver     netip.AddrPort
	Unique       string
	Observations []Observation
}

// ProbeResolver queries every test subdomain through the resolver at
// addr, using unique as the per-resolver cache-busting label, and
// records RCODE, AD, RA, and EDE for each — the client side of §4.2.
// One query message carries every probe, under its own ID and name.
func ProbeResolver(ctx context.Context, ex netsim.Exchanger, addr netip.AddrPort, unique string) (*Transcript, error) {
	tr := &Transcript{Resolver: addr, Unique: unique, Observations: make([]Observation, 0, len(subdomains))}
	q := dnswire.NewQuery(0, dnswire.Root, dnswire.TypeA, true)
	for i, sub := range subdomains {
		q.Header.ID = uint16(0x4000 + i)
		q.Questions[0].Name = sub.QName(unique)
		resp, err := ex.Exchange(ctx, addr, q)
		obs := Observation{
			Label:      sub.Label,
			Iterations: sub.Iterations,
			NXProbe:    sub.WantNXDOMAIN,
		}
		if err != nil {
			obs.Err = err
		} else {
			obs.RCode = resp.ExtendedRCode()
			obs.AD = resp.Header.AuthenticatedData
			obs.RA = resp.Header.RecursionAvailable
			if opt, ok := resp.OPT(); ok {
				obs.EDE = opt.EDEs
			}
		}
		tr.Observations = append(tr.Observations, obs)
	}
	return tr, nil
}

// Find returns the observation for a label.
func (t *Transcript) Find(label string) (Observation, bool) {
	for _, o := range t.Observations {
		if o.Label == label {
			return o, true
		}
	}
	return Observation{}, false
}

// ItSeries returns the it-N observations sorted by N (excluding
// it-2501-expired); observations with the same N keep their probe
// order. Probes run in Subdomains order, where the limit successors
// it-51, it-101 and it-151 come after it-500.
func (t *Transcript) ItSeries() []Observation {
	var out []Observation
	for _, o := range t.Observations {
		if o.NXProbe && o.Label != "it-2501-expired" {
			out = append(out, o)
		}
	}
	slices.SortStableFunc(out, func(a, b Observation) int { return cmp.Compare(a.Iterations, b.Iterations) })
	return out
}
