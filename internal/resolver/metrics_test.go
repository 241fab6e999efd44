package resolver

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/obs"
)

func TestNSEC3HashWorkModel(t *testing.T) {
	q := dnswire.MustParseName("a.b.example.com")
	apex := dnswire.MustParseName("example.com")
	// Two candidate labels below the apex, plus next closer and
	// wildcard → 4 hashed names, each 1+iterations applications.
	if got := nsec3HashWork(q, apex, 0); got != 4 {
		t.Errorf("0 iterations: work %d, want 4", got)
	}
	if got := nsec3HashWork(q, apex, 150); got != 4*151 {
		t.Errorf("150 iterations: work %d, want %d", got, 4*151)
	}
	// Degenerate inputs still charge at least one hashed name.
	if got := nsec3HashWork(apex, apex, 10); got != 3*11 {
		t.Errorf("apex query: work %d, want %d", got, 3*11)
	}
}

// TestResolverMetrics exercises a validating resolver against the
// testbed and checks the counters: upstream queries match the
// transport's view, iterated-hash work accrues on every verified
// denial, and probes under one zone start their walks at its cached
// cut.
func TestResolverMetrics(t *testing.T) {
	h := buildWorld(t)
	counter := &countingExchanger{inner: h.Net}
	reg := obs.NewRegistry()
	r := New(Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor,
		Exchanger: counter, Policy: compliantPolicy(),
		Now: func() uint32 { return tNow },
		Obs: reg,
	})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		q := dnswire.MustParseName(fmt.Sprintf("met-%d.www.it-1.rfc9276-in-the-wild.com", i))
		if res, err := r.Resolve(ctx, q, dnswire.TypeA); err != nil || res.RCode != dnswire.RCodeNXDomain {
			t.Fatalf("probe %d: %v %+v", i, err, res)
		}
	}

	upstream := reg.Counter("resolver_upstream_queries_total", "").Value()
	if upstream != uint64(counter.count) {
		t.Errorf("resolver_upstream_queries_total %d, transport saw %d", upstream, counter.count)
	}
	if upstream == 0 {
		t.Error("no upstream queries counted")
	}
	if v := reg.Counter("resolver_nsec3_hash_work_total", "").Value(); v == 0 {
		t.Error("no NSEC3 hash work counted despite validated denials")
	}
	if v := reg.Counter("resolver_delegation_cache_hits_total", "").Value(); v == 0 {
		t.Error("no walk started at a cached zone cut despite eight probes under one zone")
	}
}

// TestVerifyMemoTransparent sends one probe sequence through a resolver
// that verifies everything itself and through two that share a
// VerifyMemo (the second finds every verdict already there): same
// Results, same NSEC3 hash work, same upstream queries — sharing
// signature verdicts saves ECDSA and nothing else.
func TestVerifyMemoTransparent(t *testing.T) {
	h := buildWorld(t)
	strict := compliantPolicy()
	strict.Name, strict.InsecureLimit, strict.ServfailLimit = "test-strict", 50, 150
	probes := []string{
		"m.valid", "m.expired", "m.www.it-1", "m.www.it-50", "m.www.it-51",
		"m.www.it-150", "m.www.it-151", "m.www.it-500", "m.www.it-2501-expired", "m.www.it-1",
	}
	type run struct {
		results            []*Result
		hashWork, upstream uint64
	}
	probe := func(p Policy, memo *dnssec.VerifyMemo, warm bool) run {
		t.Helper()
		reg := obs.NewRegistry()
		r := New(Config{
			Roots: h.Roots, TrustAnchor: h.TrustAnchor, Exchanger: h.Net, Policy: p,
			Now: func() uint32 { return tNow }, Obs: reg, VerifyMemo: memo,
		})
		if warm {
			for _, q := range probes {
				warmCuts(t, r, q+".rfc9276-in-the-wild.com")
			}
		}
		var out run
		for _, q := range probes {
			out.results = append(out.results, resolveA(t, r, q+".rfc9276-in-the-wild.com"))
		}
		out.hashWork = reg.Counter("resolver_nsec3_hash_work_total", "").Value()
		out.upstream = reg.Counter("resolver_upstream_queries_total", "").Value()
		return out
	}
	for _, p := range []Policy{compliantPolicy(), strict} {
		memoReg := obs.NewRegistry()
		memo := dnssec.NewVerifyMemo(memoReg)
		want := probe(p, nil, false)
		if want.hashWork == 0 || want.upstream == 0 {
			t.Fatalf("%s: reference run did no work: %+v", p.Name, want)
		}
		for _, name := range []string{"cold memo", "warm memo"} {
			if got := probe(p, memo, false); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: differs from the memo-less resolver\n got: %+v\nwant: %+v", p.Name, name, got, want)
			}
		}
		// Where a walk starts is as invisible to the results and to the
		// hash-work meter as who verified a signature: a resolver whose
		// delegation cache already holds every cut answers the same and
		// hashes the same (its upstream count includes the warming).
		if got := probe(p, nil, true); !reflect.DeepEqual(got.results, want.results) || got.hashWork != want.hashWork {
			t.Errorf("%s, warm cuts: differs from the cold resolver\n got: %+v\nwant: %+v", p.Name, got, want)
		}
		requests := memoReg.Counter("resolver_sig_verifications_total", "").Value()
		hits := memoReg.Counter("resolver_sig_verify_memo_hits_total", "").Value()
		// The warm resolver asked for exactly what the cold one did and
		// verified none of it.
		if requests == 0 || hits < requests/2 {
			t.Errorf("%s: %d signature checks requested, %d answered from the memo", p.Name, requests, hits)
		}
	}
}
