package resolver

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dnswire"
)

func TestAggressiveNSEC3Synthesis(t *testing.T) {
	h := buildWorld(t)
	counter := &countingExchanger{inner: h.Net}
	p := compliantPolicy()
	p.AggressiveNSEC = true
	r := New(Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor,
		Exchanger: counter, Policy: p,
		Now: func() uint32 { return tNow },
	})
	ctx := context.Background()
	// Prime the cache until the it-1 zone's complete 3-record chain
	// (apex, www, wildcard) has been learned: each NXDOMAIN response
	// carries the records its particular proof needs, so a few
	// distinct probes are required to harvest every span.
	zoneApex := dnswire.MustParseName("it-1.rfc9276-in-the-wild.com")
	for i := 0; i < 32; i++ {
		q := dnswire.MustParseName(fmt.Sprintf("agg-prime-%d.www.it-1.rfc9276-in-the-wild.com", i))
		res, err := r.Resolve(ctx, q, dnswire.TypeA)
		if err != nil || res.RCode != dnswire.RCodeNXDomain || !res.AD {
			t.Fatalf("prime %d: %v %+v", i, err, res)
		}
		r.aggressive.mu.Lock()
		z, _ := r.aggressive.zones.get(zoneApex, tNow)
		n := len(z.records)
		r.aggressive.mu.Unlock()
		if n == 3 {
			break
		}
	}
	warm := counter.count
	// Any further non-existent name in the zone must synthesize from
	// cache: no upstream queries at all.
	q2 := dnswire.MustParseName("agg-two.www.it-1.rfc9276-in-the-wild.com")
	res, err := r.Resolve(ctx, q2, dnswire.TypeA)
	if err != nil || res.RCode != dnswire.RCodeNXDomain || !res.AD {
		t.Fatalf("synthesized: %v %+v", err, res)
	}
	if counter.count != warm {
		t.Fatalf("aggressive cache missed: %d new upstream queries", counter.count-warm)
	}
	if res.Status != StatusSecure {
		t.Fatalf("synthesized status %s", res.Status)
	}
}

func TestAggressiveNSEC3DisabledByDefault(t *testing.T) {
	h := buildWorld(t)
	counter := &countingExchanger{inner: h.Net}
	r := New(Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor,
		Exchanger: counter, Policy: compliantPolicy(),
		Now: func() uint32 { return tNow },
	})
	ctx := context.Background()
	resolveA(t, r, "agg-a.www.it-1.rfc9276-in-the-wild.com")
	warm := counter.count
	_, err := r.Resolve(ctx, dnswire.MustParseName("agg-b.www.it-1.rfc9276-in-the-wild.com"), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if counter.count == warm {
		t.Fatal("upstream queries skipped without AggressiveNSEC")
	}
}

func TestAggressiveNSEC3DoesNotSynthesizeExistingNames(t *testing.T) {
	h := buildWorld(t)
	p := compliantPolicy()
	p.AggressiveNSEC = true
	r := newTestResolver(t, h, p)
	ctx := context.Background()
	// Prime with an NXDOMAIN from the it-1 zone.
	if _, err := r.Resolve(ctx, dnswire.MustParseName("zzz.www.it-1.rfc9276-in-the-wild.com"), dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	// www.it-1… exists; the cache must not deny it.
	res, err := r.Resolve(ctx, dnswire.MustParseName("www.it-1.rfc9276-in-the-wild.com"), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNoError || len(res.Answers) == 0 {
		t.Fatalf("existing name denied: %+v", res)
	}
}

func TestAggressiveNSEC3RespectsCD(t *testing.T) {
	h := buildWorld(t)
	p := compliantPolicy()
	p.AggressiveNSEC = true
	r := newTestResolver(t, h, p)
	ctx := context.Background()
	if _, err := r.Resolve(ctx, dnswire.MustParseName("cda.www.it-1.rfc9276-in-the-wild.com"), dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	// CD queries bypass synthesis (they must see upstream data).
	res, err := r.ResolveCD(ctx, dnswire.MustParseName("cdb.www.it-1.rfc9276-in-the-wild.com"), dnswire.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.AD {
		t.Fatal("CD response claims AD")
	}
}

func TestAggressiveCacheScopedToZoneParams(t *testing.T) {
	// Spans learned from it-1 must not prove names in it-2 (different
	// zone apex), even though both chains cover the whole hash space.
	h := buildWorld(t)
	counter := &countingExchanger{inner: h.Net}
	p := compliantPolicy()
	p.AggressiveNSEC = true
	r := New(Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor,
		Exchanger: counter, Policy: p,
		Now: func() uint32 { return tNow },
	})
	ctx := context.Background()
	if _, err := r.Resolve(ctx, dnswire.MustParseName("x.www.it-1.rfc9276-in-the-wild.com"), dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	warm := counter.count
	res, err := r.Resolve(ctx, dnswire.MustParseName("x.www.it-2.rfc9276-in-the-wild.com"), dnswire.TypeA)
	if err != nil || res.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("it-2: %v %+v", err, res)
	}
	if counter.count == warm {
		t.Fatal("cross-zone synthesis happened")
	}
}

func TestAggressiveCacheExpiry(t *testing.T) {
	h := buildWorld(t)
	now := uint32(tNow)
	p := compliantPolicy()
	p.AggressiveNSEC = true
	counter := &countingExchanger{inner: h.Net}
	r := New(Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor,
		Exchanger: counter, Policy: p,
		Now: func() uint32 { return now },
	})
	ctx := context.Background()
	if _, err := r.Resolve(ctx, dnswire.MustParseName("exp-a.www.it-1.rfc9276-in-the-wild.com"), dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	// Jump far past every TTL: both message cache and aggressive cache
	// must expire, forcing a fresh resolution.
	now += 1 << 20
	warm := counter.count
	if _, err := r.Resolve(ctx, dnswire.MustParseName("exp-b.www.it-1.rfc9276-in-the-wild.com"), dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if counter.count == warm {
		t.Fatal("expired spans still used for synthesis")
	}
}

func TestAggressiveHonorsNoNegativeAD(t *testing.T) {
	h := buildWorld(t)
	p := compliantPolicy()
	p.AggressiveNSEC = true
	p.NoNegativeAD = true
	r := newTestResolver(t, h, p)
	ctx := context.Background()
	if _, err := r.Resolve(ctx, dnswire.MustParseName("na-a.www.it-1.rfc9276-in-the-wild.com"), dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	res, err := r.Resolve(ctx, dnswire.MustParseName("na-b.www.it-1.rfc9276-in-the-wild.com"), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.AD {
		t.Fatal("synthesized answer set AD despite NoNegativeAD")
	}
}
