package testbed

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
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

// buildWide stands up a wide Shared world against cache: the root, 64
// TLDs (every eighth unsigned, the rest alternating NSEC and NSEC3),
// and two second-level zones under each signed TLD. Only the root is
// built; every other zone is planned (keys, DS) and left lazy.
func buildWide(t testing.TB, cache *SignCache) *Hierarchy {
	t.Helper()
	b := NewBuilder(tInception, tExpiration, WithCache(cache), WithLazySigning())
	b.AddZone(ZoneSpec{
		Apex: dnswire.Root, Shared: true,
		Sign:   zone.SignConfig{Denial: zone.DenialNSEC},
		Server: netsim.Addr4(198, 41, 0, 4),
	})
	for i := range 64 {
		tld := dnswire.MustParseName(fmt.Sprintf("tld%02d", i))
		cfg := zone.SignConfig{Denial: zone.DenialNSEC}
		if i%2 == 1 {
			cfg = zone.SignConfig{Denial: zone.DenialNSEC3, OptOut: true}
		}
		unsigned := i%8 == 7
		b.AddZone(ZoneSpec{
			Apex: tld, Shared: true, Sign: cfg, Unsigned: unsigned,
			Server: netsim.Addr4(192, 6, 0, byte(i)),
		})
		if unsigned {
			continue
		}
		for j := range 2 {
			b.AddZone(ZoneSpec{
				Apex: tld.MustChild(fmt.Sprintf("d%d", j)), Shared: true,
				Sign:   zone.SignConfig{Denial: zone.DenialNSEC3},
				Server: netsim.Addr4(203, 0, byte(j), byte(i)),
			})
		}
	}
	h, err := b.Build(netsim.NewNetwork(1))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// buildSeeded stands up root, com and the RFC 9276 testbed, all
// Shared and lazy, under WithSeed(seed) on a SignCache of its own.
func buildSeeded(t *testing.T, seed uint64) *Hierarchy {
	t.Helper()
	b := NewBuilder(tInception, tExpiration, WithSeed(seed), WithCache(NewSignCache()), WithLazySigning())
	InstallWorld(b)
	h, err := b.Build(netsim.NewNetwork(seed))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestBuildIndependentOfGOMAXPROCS builds one world twice over one
// SignCache, first on one P and then on four. The trust anchors must
// be equal, and the second build's root — built in Build, its
// fingerprint covering every delegation's NS and DS in wiring order —
// must be the very zone the first build signed. Then it builds a
// seeded world twice, on one P and on four, each on a SignCache of its
// own: nothing is shared, so what must be equal is what the seed
// alone decides — the trust anchor and the octets served at the
// testbed apex, a DNSKEY answer and an NXDOMAIN proof, signatures
// included.
func TestBuildIndependentOfGOMAXPROCS(t *testing.T) {
	cache := NewSignCache()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h1 := buildWide(t, cache)
	runtime.GOMAXPROCS(4)
	h2 := buildWide(t, cache)
	if len(h1.TrustAnchor) != 1 || len(h2.TrustAnchor) != 1 || h1.TrustAnchor[0].String() != h2.TrustAnchor[0].String() {
		t.Fatalf("trust anchors diverged: %v vs %v", h1.TrustAnchor, h2.TrustAnchor)
	}
	if h2.Zones[dnswire.Root] != h1.Zones[dnswire.Root] {
		t.Fatal("second build's root is not the first build's signed root")
	}
	if signed, reused := h2.SignStats(); signed != 0 || reused != 1 {
		t.Fatalf("second build SignStats = %d/%d, want 0/1 (root from cache)", signed, reused)
	}

	apex := dnswire.MustParseName(TestbedDomain)
	serve := func(h *Hierarchy) [][]byte {
		t.Helper()
		var out [][]byte
		for _, q := range []struct {
			name  dnswire.Name
			qtype dnswire.Type
			rcode dnswire.RCode
		}{
			{apex, dnswire.TypeDNSKEY, dnswire.RCodeNoError},
			{apex.MustChild("gone"), dnswire.TypeA, dnswire.RCodeNXDomain},
		} {
			resp, err := h.Net.Exchange(context.Background(), netsim.Addr4(203, 0, 113, 10),
				dnswire.NewQuery(0x5EED, q.name, q.qtype, true))
			if err != nil {
				t.Fatal(err)
			}
			sigs := 0
			for _, rr := range append(resp.Answers, resp.Authority...) {
				if rr.Type() == dnswire.TypeRRSIG {
					sigs++
				}
			}
			if resp.Header.RCode != q.rcode || sigs == 0 {
				t.Fatalf("%s %s: %s with %d RRSIGs, want %s and signatures", q.name, q.qtype, resp.Header.RCode, sigs, q.rcode)
			}
			wire, err := resp.Pack()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, wire)
		}
		return out
	}
	runtime.GOMAXPROCS(1)
	s1 := buildSeeded(t, 7)
	runtime.GOMAXPROCS(4)
	s4 := buildSeeded(t, 7)
	if len(s1.TrustAnchor) != 1 || len(s4.TrustAnchor) != 1 || s1.TrustAnchor[0].String() != s4.TrustAnchor[0].String() {
		t.Fatalf("seeded trust anchors diverged: %v vs %v", s1.TrustAnchor, s4.TrustAnchor)
	}
	w1, w4 := serve(s1), serve(s4)
	for i := range w1 {
		if !bytes.Equal(w1[i], w4[i]) {
			t.Errorf("seeded builds serve different octets for question %d:\n P=1 %x\n P=4 %x", i, w1[i], w4[i])
		}
	}
}

// TestKeysForConcurrent asks for one apex's keys from eight goroutines
// at once: every caller must get the same key pair.
func TestKeysForConcurrent(t *testing.T) {
	cache := NewSignCache()
	apex := dnswire.MustParseName("example.com")
	const callers = 8
	got := make([]cachedKeys, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = cache.keysFor(apex, dnswire.AlgECDSAP256SHA256, nil)
		}()
	}
	wg.Wait()
	for i := range callers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i].ksk != got[0].ksk || got[i].zsk != got[0].zsk {
			t.Fatalf("caller %d got a different key pair than caller 0", i)
		}
	}
	again, err := cache.keysFor(apex, dnswire.AlgECDSAP256SHA256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != got[0] {
		t.Fatal("the cache kept a different key pair than its callers got")
	}
}

// TestSignCacheSameContentConcurrent signs identical content from eight
// goroutines at once, fifty times over: every caller must get the same
// signed zone, and exactly one of them may have signed it.
func TestSignCacheSameContentConcurrent(t *testing.T) {
	b := NewBuilder(tInception, tExpiration)
	spec := &ZoneSpec{Apex: dnswire.MustParseName("same.example"), Server: netsim.Addr4(203, 0, 113, 9)}
	cfg := zone.SignConfig{Denial: zone.DenialNSEC3, Inception: tInception, Expiration: tExpiration}
	const callers = 8
	for round := range 50 {
		cache := NewSignCache()
		keys, err := cache.keysFor(spec.Apex, dnswire.AlgECDSAP256SHA256, nil)
		if err != nil {
			t.Fatal(err)
		}
		keyed := cfg
		keyed.KSK, keyed.ZSK = keys.ksk, keys.zsk
		zones := make([]*zone.Zone, callers)
		for i := range zones {
			zones[i] = b.rawZone(spec)
		}
		got := make([]*zone.Signed, callers)
		hits := make([]bool, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], hits[i], errs[i] = cache.sign(zones[i], keyed)
			}()
		}
		wg.Wait()
		misses := 0
		for i := range callers {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got[i] != got[0] {
				t.Fatalf("round %d: caller %d got a different signed zone than caller 0", round, i)
			}
			if !hits[i] {
				misses++
			}
		}
		if misses != 1 {
			t.Fatalf("round %d: %d callers report signing, want exactly 1", round, misses)
		}
	}
}
