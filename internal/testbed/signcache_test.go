package testbed

import (
	"testing"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/zone"
)

// buildShared stands up root + com + a leaf, all Shared, against cache.
func buildShared(t *testing.T, cache *SignCache) *Hierarchy {
	t.Helper()
	b := NewBuilder(tInception, tExpiration, WithCache(cache))
	b.AddZone(ZoneSpec{
		Apex: dnswire.Root, Shared: true,
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC},
		Server: netsim.Addr4(198, 41, 0, 4),
	})
	b.AddZone(ZoneSpec{
		Apex: dnswire.MustParseName("com"), Shared: true,
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC3, OptOut: true},
		Server: netsim.Addr4(192, 5, 6, 30),
	})
	b.AddZone(ZoneSpec{
		Apex: dnswire.MustParseName("stable.com"), Shared: true,
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC3},
		Server: netsim.Addr4(203, 0, 113, 77),
	})
	h, err := b.Build(netsim.NewNetwork(1))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSignCacheReusesIdenticalBuilds(t *testing.T) {
	cache := NewSignCache()
	h1 := buildShared(t, cache)
	if signed, reused := h1.SignStats(); signed != 3 || reused != 0 {
		t.Fatalf("first build: signed %d reused %d, want 3/0", signed, reused)
	}
	h2 := buildShared(t, cache)
	if signed, reused := h2.SignStats(); signed != 0 || reused != 3 {
		t.Fatalf("second build: signed %d reused %d, want 0/3", signed, reused)
	}
	// Key reuse makes the trust anchors (root KSK digest) identical,
	// so a resolver configured against build 1 validates build 2.
	if len(h1.TrustAnchor) != 1 || h1.TrustAnchor[0].String() != h2.TrustAnchor[0].String() {
		t.Fatalf("trust anchors diverged: %v vs %v", h1.TrustAnchor, h2.TrustAnchor)
	}
}

// TestSignCacheMissesOnContentChange: a zone whose record set differs
// must be re-signed, while unchanged zones still hit. The parent chain
// stays consistent because DS depends only on the cached KSK.
func TestSignCacheMissesOnContentChange(t *testing.T) {
	cache := NewSignCache()
	build := func(extra bool) *Hierarchy {
		b := NewBuilder(tInception, tExpiration, WithCache(cache))
		b.AddZone(ZoneSpec{
			Apex: dnswire.Root, Shared: true,
			Sign:   zone.SignConfig{Denial: zone.DenialNSEC},
			Server: netsim.Addr4(198, 41, 0, 4),
		})
		b.AddZone(ZoneSpec{
			Apex: dnswire.MustParseName("com"), Shared: true,
			Sign: zone.SignConfig{Denial: zone.DenialNSEC3},
			Populate: func(z *zone.Zone) {
				if extra {
					z.MustAdd(dnswire.RR{Name: z.Apex.MustChild("added"), Class: dnswire.ClassIN,
						TTL: 300, Data: dnswire.TXT{Strings: []string{"new"}}})
				}
			},
			Server: netsim.Addr4(192, 5, 6, 30),
		})
		h, err := b.Build(netsim.NewNetwork(1))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	build(false)
	h2 := build(true)
	// com changed (re-signed); root is unchanged because com's DS is
	// derived from its cached KSK.
	if signed, reused := h2.SignStats(); signed != 1 || reused != 1 {
		t.Fatalf("changed build: signed %d reused %d, want 1/1", signed, reused)
	}
}
