package testbed

import (
	"context"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/nsec3"
	"repro/internal/zone"
)

// buildLazyWorld builds a three-level hierarchy (root eager, com and a
// shared domain zone lazy) with WithLazySigning.
func buildLazyWorld(t *testing.T, opts ...BuilderOption) *Hierarchy {
	t.Helper()
	b := NewBuilder(tInception, tExpiration, append([]BuilderOption{WithLazySigning()}, opts...)...)
	b.AddZone(ZoneSpec{
		Apex:   dnswire.Root,
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC},
		Server: netsim.Addr4(198, 41, 0, 4),
	})
	b.AddZone(ZoneSpec{
		Apex:   dnswire.MustParseName("com"),
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC3, OptOut: true},
		Server: netsim.Addr4(192, 5, 6, 30),
	})
	b.AddZone(ZoneSpec{
		Apex:   dnswire.MustParseName("shared.com"),
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC3, NSEC3: nsec3.Params{Iterations: 5}},
		Shared: true,
		Server: netsim.Addr4(192, 0, 2, 53),
	})
	h, err := b.Build(netsim.NewNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBuildLazySigning(t *testing.T) {
	h := buildLazyWorld(t)
	// Only the root (trust anchor) is signed eagerly.
	if len(h.Zones) != 1 {
		t.Fatalf("eager zones = %d, want 1 (root only)", len(h.Zones))
	}
	root, ok := h.Zones[dnswire.Root]
	if !ok {
		t.Fatal("root zone not signed eagerly")
	}
	// Keys are generated eagerly even for lazy zones, so the parent's
	// DS records exist before any child is materialized.
	com := dnswire.MustParseName("com")
	if len(root.Zone.Lookup(com, dnswire.TypeDS)) == 0 {
		t.Fatal("root has no DS for lazy com zone")
	}
	if signed, reused := h.SignStats(); signed != 1 || reused != 0 {
		t.Fatalf("SignStats before touch = %d/%d, want 1/0", signed, reused)
	}
	if m, u := h.LazyStats(); m != 0 || u != 2 {
		t.Fatalf("LazyStats before touch = %d/%d, want 0/2", m, u)
	}

	sz, err := h.Materialize(context.Background(), com)
	if err != nil {
		t.Fatal(err)
	}
	if got := sz.Zone.Lookup(com, dnswire.TypeNSEC3PARAM); len(got) != 1 {
		t.Fatalf("materialized com has %d NSEC3PARAMs, want 1", len(got))
	}
	if m, u := h.LazyStats(); m != 1 || u != 1 {
		t.Fatalf("LazyStats after com = %d/%d, want 1/1", m, u)
	}
	if signed, _ := h.SignStats(); signed != 2 {
		t.Fatalf("SignStats after com = %d signed, want 2", signed)
	}
	// Idempotent: a second Materialize is a lookup, not a re-sign.
	if _, err := h.Materialize(context.Background(), com); err != nil {
		t.Fatal(err)
	}
	if signed, _ := h.SignStats(); signed != 2 {
		t.Fatal("second Materialize re-signed the zone")
	}
	// Eager zones materialize as a plain lookup; unknown apexes error.
	if got, err := h.Materialize(context.Background(), dnswire.Root); err != nil || got != root {
		t.Fatalf("Materialize(root) = %v, %v", got, err)
	}
	if _, err := h.Materialize(context.Background(), dnswire.MustParseName("nope.example")); err == nil {
		t.Fatal("Materialize of unknown apex should error")
	}
}

// TestBuildLazySharedUsesCache: a Shared lazy zone materialized in two
// hierarchies built from one SignCache signs once and reuses once.
func TestBuildLazySharedUsesCache(t *testing.T) {
	cache := NewSignCache()
	shared := dnswire.MustParseName("shared.com")

	h1 := buildLazyWorld(t, WithCache(cache))
	if _, err := h1.Materialize(context.Background(), shared); err != nil {
		t.Fatal(err)
	}
	if signed, reused := h1.SignStats(); signed != 2 || reused != 0 {
		t.Fatalf("first build SignStats = %d/%d, want 2/0", signed, reused)
	}

	h2 := buildLazyWorld(t, WithCache(cache))
	if _, err := h2.Materialize(context.Background(), shared); err != nil {
		t.Fatal(err)
	}
	if signed, reused := h2.SignStats(); signed != 1 || reused != 1 {
		t.Fatalf("second build SignStats = %d/%d, want 1/1 (shared zone from cache)", signed, reused)
	}
}

// TestEagerAndLazyBuildsAreOneBuild: every delegation shape the builder
// knows — unsigned child, broken DS, omitted DS, out-of-bailiwick name
// server, dual-stack server, a three-level chain — built eagerly and
// then lazily over one SignCache. The lazy build must sign nothing:
// each zone it materializes content-addresses (records, config, keys)
// to the very zone the eager build signed, under the same trust anchor.
func TestEagerAndLazyBuildsAreOneBuild(t *testing.T) {
	cache := NewSignCache()
	n3 := zone.SignConfig{Denial: zone.DenialNSEC3, NSEC3: nsec3.Params{Iterations: 5}}
	infra := netsim.Addr4(203, 0, 113, 1)
	specs := []ZoneSpec{
		{Apex: dnswire.Root, Sign: zone.SignConfig{Denial: zone.DenialNSEC},
			Server: netsim.Addr4(198, 41, 0, 4), ServerV6: netsim.Addr6(0x30)},
		{Apex: dnswire.MustParseName("com"), Sign: zone.SignConfig{Denial: zone.DenialNSEC3, OptOut: true},
			Server: netsim.Addr4(192, 5, 6, 30)},
		{Apex: dnswire.MustParseName("net"), Sign: zone.SignConfig{Denial: zone.DenialNSEC},
			Server: netsim.Addr4(192, 5, 6, 31)},
		{Apex: dnswire.MustParseName("infra.net"), Sign: zone.SignConfig{Denial: zone.DenialNSEC}, Server: infra,
			Populate: func(z *zone.Zone) {
				z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("ns1"), Class: dnswire.ClassIN, TTL: 3600,
					Data: dnswire.A{Addr: infra.Addr()}})
			}},
		{Apex: dnswire.MustParseName("example.com"), Sign: n3, Server: netsim.Addr4(192, 0, 2, 53)},
		{Apex: dnswire.MustParseName("deep.example.com"), Sign: n3, Server: netsim.Addr4(192, 0, 2, 54)},
		{Apex: dnswire.MustParseName("broken.com"), Sign: n3, BreakDS: true, Server: netsim.Addr4(192, 0, 2, 55)},
		{Apex: dnswire.MustParseName("island.com"), Sign: n3, OmitDS: true, Server: netsim.Addr4(192, 0, 2, 56)},
		{Apex: dnswire.MustParseName("plain.com"), Unsigned: true, Server: netsim.Addr4(192, 0, 2, 57)},
		{Apex: dnswire.MustParseName("hosted.com"), Sign: n3, Server: infra,
			NSHost: dnswire.MustParseName("ns1.infra.net")},
	}
	build := func(opts ...BuilderOption) *Hierarchy {
		b := NewBuilder(tInception, tExpiration, append(opts, WithCache(cache))...)
		for _, spec := range specs {
			spec.Shared = true
			b.AddZone(spec)
		}
		h, err := b.Build(netsim.NewNetwork(3))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	signedZones := len(specs) - 1 // all but plain.com

	eager := build()
	if signed, reused := eager.SignStats(); signed != signedZones || reused != 0 {
		t.Fatalf("eager SignStats = %d/%d, want %d/0", signed, reused, signedZones)
	}
	if m, u := eager.LazyStats(); m != 0 || u != 0 {
		t.Fatalf("eager LazyStats = %d/%d, want 0/0 (zones Build signs are not lazy)", m, u)
	}

	lazy := build(WithLazySigning())
	for _, spec := range specs {
		sz, err := lazy.Materialize(context.Background(), spec.Apex)
		if err != nil {
			t.Fatalf("Materialize(%s): %v", spec.Apex, err)
		}
		if want, ok := eager.Zones[spec.Apex]; ok != !spec.Unsigned || (ok && sz != want) {
			t.Errorf("%s: lazy build did not materialize the zone the eager build signed", spec.Apex)
		}
	}
	if signed, reused := lazy.SignStats(); signed != 0 || reused != signedZones {
		t.Fatalf("lazy SignStats = %d/%d, want 0/%d", signed, reused, signedZones)
	}
	if m, u := lazy.LazyStats(); m != len(specs)-1 || u != 0 {
		t.Fatalf("lazy LazyStats = %d/%d, want %d/0 (every zone but the root)", m, u, len(specs)-1)
	}
	if len(lazy.TrustAnchor) != 1 || lazy.TrustAnchor[0].String() != eager.TrustAnchor[0].String() {
		t.Fatalf("trust anchors diverged: %v vs %v", eager.TrustAnchor, lazy.TrustAnchor)
	}
}

// TestSigStats: an eager hierarchy serves zones whose every signature
// exists; a lazy one makes the DNSKEY signature when it builds a zone
// and the rest as answers carry them; and over one SignCache the
// counts are sums — a zone handed on by the cache adds to the second
// hierarchy's count only what the second hierarchy made.
func TestSigStats(t *testing.T) {
	eager := NewBuilder(tInception, tExpiration)
	for _, apex := range []string{".", "com"} {
		eager.AddZone(ZoneSpec{Apex: dnswire.MustParseName(apex), Server: netsim.Addr4(198, 41, 0, 4),
			Sign: zone.SignConfig{Denial: zone.DenialNSEC3}})
	}
	h, err := eager.Build(netsim.NewNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	if made, total := h.SigStats(); made != total || total == 0 {
		t.Fatalf("eager SigStats = %d of %d, want all", made, total)
	}

	cache := NewSignCache()
	shared := dnswire.MustParseName("shared.com")
	h1 := buildLazyWorld(t, WithCache(cache))
	if made, total := h1.SigStats(); made != 1 || total <= made {
		t.Fatalf("lazy SigStats after Build = %d of %d, want the root's DNSKEY signature alone", made, total)
	}
	sz, err := h1.Materialize(context.Background(), shared)
	if err != nil {
		t.Fatal(err)
	}
	_, rootTotal := h1.Zones[dnswire.Root].SigStats()
	_, sharedTotal := sz.SigStats()
	if made, total := h1.SigStats(); made != 2 || total != rootTotal+sharedTotal {
		t.Fatalf("SigStats after Materialize = %d of %d, want 2 of %d", made, total, rootTotal+sharedTotal)
	}
	if _, err := sz.Evaluate(shared.MustChild("nope"), dnswire.TypeA, true); err != nil {
		t.Fatal(err)
	}
	made1, _ := h1.SigStats()
	if made1 <= 2 {
		t.Fatalf("a signed NXDOMAIN made no signature: SigStats = %d", made1)
	}

	h2 := buildLazyWorld(t, WithCache(cache))
	if got, err := h2.Materialize(context.Background(), shared); err != nil || got != sz {
		t.Fatalf("second hierarchy did not get the cached zone: %v", err)
	}
	if made, total := h2.SigStats(); made != 1 || total != rootTotal {
		t.Fatalf("second hierarchy SigStats = %d of %d, want 1 of %d (its own root)", made, total, rootTotal)
	}
	if _, err := sz.Evaluate(shared, dnswire.TypeNS, true); err != nil {
		t.Fatal(err)
	}
	if made, _ := h2.SigStats(); made != 2 {
		t.Fatalf("second hierarchy SigStats after one new signature = %d, want 2", made)
	}
	if made, _ := h1.SigStats(); made != made1+1 {
		t.Fatalf("first hierarchy SigStats = %d, want %d: it still serves the shared zone", made, made1+1)
	}
}
