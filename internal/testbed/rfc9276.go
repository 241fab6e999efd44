package testbed

import (
	"context"
	"fmt"
	"net/netip"
	"sync"

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
}

// Subdomains returns the paper's 49 test subdomains (§4.2) plus
// it-2501-expired: valid, expired, it-1…it-25, it-50…it-500 in steps of
// 25, and the limit successors it-51, it-101, it-151.
func Subdomains() []Subdomain {
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
	base := dnswire.MustParseName(s.Label + "." + TestbedDomain)
	if s.WantNXDOMAIN {
		return base.MustChild("www").MustChild(unique)
	}
	return base.MustChild(unique)
}

// Apex returns the subdomain's zone apex.
func (s Subdomain) Apex() dnswire.Name {
	return dnswire.MustParseName(s.Label + "." + TestbedDomain)
}

// InstallTestbed adds the testbed's zones to a hierarchy builder:
// the rfc9276-in-the-wild.com zone itself plus one delegated,
// separately-signed child zone per subdomain (NSEC3 parameters are
// per-zone state, so each iteration count needs its own zone).
// serverAddr/serverV6 host every testbed zone ("reachable over both
// IPv4 and IPv6", §4.2). The parent "com" and the root must be added
// by the caller.
func InstallTestbed(b *Builder, serverAddr, serverV6 netip.AddrPort) {
	website := dnswire.A{Addr: netip.MustParseAddr("192.0.2.80")}
	b.AddZone(ZoneSpec{
		Apex: dnswire.MustParseName(TestbedDomain),
		Populate: func(z *zone.Zone) {
			// The opt-out/ethics website.
			z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("www"), Class: dnswire.ClassIN, TTL: 300, Data: website})
		},
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC3},
		Server: serverAddr, ServerV6: serverV6,
		// Identical across repeated builds: a sign cache (when the
		// builder has one) reuses the signed zone across shard worlds.
		Shared: true,
	})
	for _, sub := range Subdomains() {
		sub := sub
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
			Server: serverAddr, ServerV6: serverV6,
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
func ProbeResolver(ctx context.Context, ex netsim.Exchanger, addr netip.AddrPort, unique string) (*Transcript, error) {
	tr := &Transcript{Resolver: addr, Unique: unique}
	for i, sub := range Subdomains() {
		q := dnswire.NewQuery(uint16(0x4000+i), sub.QName(unique), dnswire.TypeA, true)
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

// ProbeResult is one resolver's outcome in a ProbeResolvers batch.
type ProbeResult struct {
	Transcript *Transcript
	Err        error
}

// ProbeResolvers runs ProbeResolver against n resolvers with at most
// limit probes in flight. target names resolver i's address and its
// cache-busting label; results are collected by that index, so their
// order is the caller's order — never goroutine completion order. A
// probe still queued when ctx is cancelled reports ctx.Err().
func ProbeResolvers(ctx context.Context, ex netsim.Exchanger, limit, n int, target func(i int) (netip.AddrPort, string)) []ProbeResult {
	results := make([]ProbeResult, n)
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				results[i].Err = ctx.Err()
				return
			}
			defer func() { <-sem }()
			addr, unique := target(i)
			results[i].Transcript, results[i].Err = ProbeResolver(ctx, ex, addr, unique)
		}(i)
	}
	wg.Wait()
	return results
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
// it-2501-expired).
func (t *Transcript) ItSeries() []Observation {
	var out []Observation
	for _, o := range t.Observations {
		if o.NXProbe && o.Label != "it-2501-expired" {
			out = append(out, o)
		}
	}
	return out
}
