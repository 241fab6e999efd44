package resolver

import (
	"context"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// Servers of buildMixedWorld.
var (
	mixedRoot  = netsim.Addr4(198, 41, 0, 4)
	mixedCom   = netsim.Addr4(192, 5, 6, 30)
	mixedChild = netsim.Addr4(203, 0, 113, 21) // nsec-zone.com
)

// sentQuestion is one upstream query as the transport saw it.
type sentQuestion struct {
	server netip.AddrPort
	name   dnswire.Name
	qtype  dnswire.Type
}

// questionLog records every upstream question with its type and server.
type questionLog struct {
	inner netsim.Exchanger
	mu    sync.Mutex
	sent  []sentQuestion
}

func (x *questionLog) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	x.mu.Lock()
	x.sent = append(x.sent, sentQuestion{server, q.Question().Name, q.Question().Type})
	x.mu.Unlock()
	return x.inner.Exchange(ctx, server, q)
}

// take returns the questions sent since the last call.
func (x *questionLog) take() []sentQuestion {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := x.sent
	x.sent = nil
	return out
}

func askedServer(sent []sentQuestion, server netip.AddrPort) bool {
	return slices.ContainsFunc(sent, func(q sentQuestion) bool { return q.server == server })
}

// warmCuts fills r's delegation cache — and nothing a validating query
// reads — by resolving qname with CD=1.
func warmCuts(t *testing.T, r *Resolver, qname string) {
	t.Helper()
	if _, err := r.ResolveCD(context.Background(), dnswire.MustParseName(qname), dnswire.TypeA, true); err != nil {
		t.Fatalf("warming with %s: %v", qname, err)
	}
}

// TestDelegationCacheAsksParentForDS pins the parent-side rule of
// closestCut: a cached cut is the child's servers, and the child does
// not hold its own DS RRset. With nsec-zone.com's cut warm, its DS must
// still come from com — found through com's cached cut, not the root.
func TestDelegationCacheAsksParentForDS(t *testing.T) {
	h := buildMixedWorld(t)
	log := &questionLog{inner: h.Net}
	r := New(Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor, Exchanger: log,
		Policy: compliantPolicy(), Now: func() uint32 { return tNow },
	})
	cut := dnswire.MustParseName("nsec-zone.com")
	warmCuts(t, r, "www.nsec-zone.com")
	if servers, ok := r.cuts.get(cut, tNow); !ok || !slices.Contains(servers, mixedChild) {
		t.Fatalf("cut %s not cached after a walk through it: %v", cut, servers)
	}
	log.take()

	res, err := r.Resolve(context.Background(), cut, dnswire.TypeDS)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNoError || !res.AD || !hasType(res.Answers, cut, dnswire.TypeDS) {
		t.Fatalf("DS with a warm child cut: rcode=%s ad=%v answers=%v", res.RCode, res.AD, res.Answers)
	}
	sent := log.take()
	if askedServer(sent, mixedChild) {
		t.Fatalf("the child's servers were asked during its own DS lookup: %v", sent)
	}
	if sent[0] != (sentQuestion{mixedCom, cut, dnswire.TypeDS}) {
		t.Fatalf("DS walk started with %v, want the DS question at com's cached cut", sent[0])
	}

	// The same answer a resolver that never cached a cut gives.
	if cold, _ := newTestResolver(t, h, compliantPolicy()).Resolve(context.Background(), cut, dnswire.TypeDS); !reflect.DeepEqual(res, cold) {
		t.Fatalf("warm cuts changed the DS result\nwarm: %+v\ncold: %+v", res, cold)
	}
}

// TestDelegationCacheEvictsAndRetries points a cached cut at a server
// that no longer serves the zone — it answers REFUSED, or nothing — and
// requires the Result of a cold resolver, reached by a second walk from
// the roots, with the stale addresses gone from the cache. Both the real
// cut (its servers moved) and a cut that no longer exists are covered.
func TestDelegationCacheEvictsAndRetries(t *testing.T) {
	h := buildMixedWorld(t)
	stale := netsim.Addr4(203, 0, 113, 99)
	qname := dnswire.MustParseName("www.nsec-zone.com")
	want := resolveA(t, newTestResolver(t, h, compliantPolicy()), qname.String())
	if want.RCode != dnswire.RCodeNoError || !want.AD {
		t.Fatalf("reference resolution: %+v", want)
	}
	refused := func(_ context.Context, _ netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		return &dnswire.Message{
			Header:    dnswire.Header{ID: q.Header.ID, Response: true, RCode: dnswire.RCodeRefused},
			Questions: q.Questions,
		}
	}
	silent := func(context.Context, netip.AddrPort, *dnswire.Message) *dnswire.Message { return nil }
	for _, failure := range []struct {
		mode    string
		handler netsim.HandlerFunc
	}{{"refused", refused}, {"silent", silent}} {
		for _, cut := range []dnswire.Name{"nsec-zone.com.", "www.nsec-zone.com."} {
			t.Run(failure.mode+"/"+string(cut), func(t *testing.T) {
				h.Net.Register(stale, failure.handler)
				defer h.Net.Unregister(stale)
				log := &questionLog{inner: h.Net}
				r := New(Config{
					Roots: h.Roots, TrustAnchor: h.TrustAnchor, Exchanger: log,
					Policy: compliantPolicy(), Now: func() uint32 { return tNow },
				})
				warmCuts(t, r, "other.nsec-zone.com")
				r.cuts.put(cut, []netip.AddrPort{stale}, tNow, 3600)
				log.take()

				if got := resolveA(t, r, qname.String()); !reflect.DeepEqual(got, want) {
					t.Fatalf("stale cut changed the result\n got: %+v\nwant: %+v", got, want)
				}
				sent := log.take()
				if sent[0].server != stale || !askedServer(sent, mixedRoot) {
					t.Fatalf("want a first try at the stale cut, then a walk from the roots: %v", sent)
				}
				if servers, ok := r.cuts.get(cut, tNow); ok && slices.Contains(servers, stale) {
					t.Fatalf("stale servers still cached for %s: %v", cut, servers)
				}
			})
		}
	}
}

// TestDelegationCacheExpiresWithNSTTL drives the injected clock past the
// referral's NS TTL: up to and including the last second of the TTL the
// walk starts at the cached cut, one second later it starts at the
// roots again.
func TestDelegationCacheExpiresWithNSTTL(t *testing.T) {
	h := buildMixedWorld(t)
	log := &questionLog{inner: h.Net}
	now := uint32(tNow)
	r := New(Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor, Exchanger: log,
		Policy: compliantPolicy(), Now: func() uint32 { return now },
	})
	const nsTTL = 3600 // testbed delegations
	warmCuts(t, r, "a.nsec-zone.com")
	if !askedServer(log.take(), mixedRoot) {
		t.Fatal("cold walk did not start at the roots")
	}

	now += nsTTL
	warmCuts(t, r, "b.nsec-zone.com")
	if sent := log.take(); len(sent) != 1 || sent[0].server != mixedChild {
		t.Fatalf("within the NS TTL the walk should be one question to the cached cut: %v", sent)
	}

	now++
	warmCuts(t, r, "c.nsec-zone.com")
	if sent := log.take(); sent[0].server != mixedRoot {
		t.Fatalf("past the NS TTL the walk should start at the roots: %v", sent)
	}
}
