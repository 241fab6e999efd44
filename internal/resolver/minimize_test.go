package resolver

import (
	"context"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// recordingExchanger captures which names each server was asked.
type recordingExchanger struct {
	inner netsim.Exchanger
	mu    sync.Mutex
	seen  map[netip.AddrPort][]dnswire.Name
}

func newRecordingExchanger(inner netsim.Exchanger) *recordingExchanger {
	return &recordingExchanger{inner: inner, seen: make(map[netip.AddrPort][]dnswire.Name)}
}

func (x *recordingExchanger) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	x.mu.Lock()
	x.seen[server] = append(x.seen[server], q.Question().Name)
	x.mu.Unlock()
	return x.inner.Exchange(ctx, server, q)
}

func (x *recordingExchanger) namesAt(server netip.AddrPort) []dnswire.Name {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([]dnswire.Name(nil), x.seen[server]...)
}

func TestQNameMinimizationHidesLabelsFromRoot(t *testing.T) {
	h := buildWorld(t)
	rec := newRecordingExchanger(h.Net)
	p := compliantPolicy()
	p.QNameMinimization = true
	r := New(Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor,
		Exchanger: rec, Policy: p,
		Now: func() uint32 { return tNow },
	})
	qname := dnswire.MustParseName("secret-label.valid.rfc9276-in-the-wild.com")
	res, err := r.Resolve(context.Background(), qname, dnswire.TypeA)
	if err != nil || res.RCode != dnswire.RCodeNoError || !res.AD {
		t.Fatalf("resolve: %v %+v", err, res)
	}
	// The secret leaf label must never reach the root or TLD servers
	// (DS/DNSKEY sub-queries legitimately expose zone apexes, so the
	// guarantee is about the user's label, not a raw label count).
	leaked := func(n dnswire.Name) bool {
		l := n.Labels()
		return len(l) > 0 && l[0] == "secret-label"
	}
	for _, server := range []netip.AddrPort{h.Roots[0], netsim.Addr4(192, 5, 6, 30)} {
		for _, n := range rec.namesAt(server) {
			if leaked(n) {
				t.Fatalf("server %s saw the leaf label: %s", server, n)
			}
		}
	}
	// And the root never sees anything deeper than a zone apex it
	// delegates or is asked DS/DNSKEY for — in this world ≤ 3 labels.
	for _, n := range rec.namesAt(h.Roots[0]) {
		if n.CountLabels() > 3 {
			t.Fatalf("root saw %s (%d labels)", n, n.CountLabels())
		}
	}
}

func TestQNameMinimizationResultsMatchFullWalk(t *testing.T) {
	h := buildWorld(t)
	// A lame root answers every query REFUSED.
	lameRoot := netsim.Addr4(198, 51, 100, 66)
	h.Net.Register(lameRoot, netsim.HandlerFunc(func(_ context.Context, _ netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		return &dnswire.Message{
			Header:    dnswire.Header{ID: q.Header.ID, Response: true, RCode: dnswire.RCodeRefused},
			Questions: q.Questions,
		}
	}))
	cases := []struct {
		name  string
		lame  bool // resolve from lameRoot with CD set, so only the walk can fail the query
		rcode dnswire.RCode
		ad    bool
	}{
		{"q1.valid.rfc9276-in-the-wild.com", false, dnswire.RCodeNoError, true},
		{"q1.www.it-5.rfc9276-in-the-wild.com", false, dnswire.RCodeNXDomain, true},
		{"q1.www.it-200.rfc9276-in-the-wild.com", false, dnswire.RCodeNXDomain, false},
		{"q1.expired.rfc9276-in-the-wild.com", false, dnswire.RCodeServFail, false},
		{"q1.valid.rfc9276-in-the-wild.com", true, dnswire.RCodeServFail, false},
	}
	for _, c := range cases {
		for _, minimize := range []bool{true, false} {
			cfg := Config{
				Roots: h.Roots, TrustAnchor: h.TrustAnchor,
				Exchanger: h.Net, Policy: compliantPolicy(),
				Now: func() uint32 { return tNow },
			}
			cfg.Policy.QNameMinimization = minimize
			if c.lame {
				cfg.Roots = []netip.AddrPort{lameRoot}
			}
			res, err := New(cfg).ResolveCD(context.Background(), dnswire.MustParseName(c.name), dnswire.TypeA, c.lame)
			if err != nil {
				t.Fatalf("resolve %s: %v", c.name, err)
			}
			if res.RCode != c.rcode || res.AD != c.ad {
				t.Fatalf("%s (min=%v lame=%v): rcode=%s ad=%v, want %s/%v",
					c.name, minimize, c.lame, res.RCode, res.AD, c.rcode, c.ad)
			}
		}
	}
}

func TestQNameMinimizationNXDOMAINShortCircuit(t *testing.T) {
	// For a name under a nonexistent TLD-level label, minimization gets
	// the NXDOMAIN from the com zone without ever exposing the deeper
	// labels anywhere.
	h := buildWorld(t)
	rec := newRecordingExchanger(h.Net)
	p := compliantPolicy()
	p.QNameMinimization = true
	r := New(Config{
		Roots: h.Roots, TrustAnchor: h.TrustAnchor,
		Exchanger: rec, Policy: p,
		Now: func() uint32 { return tNow },
	})
	qname := dnswire.MustParseName("deep.hidden.label.does-not-exist.com")
	res, err := r.Resolve(context.Background(), qname, dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode=%s", res.RCode)
	}
	for server, names := range rec.seen {
		for _, n := range names {
			if n.CountLabels() > 2 && n.IsSubdomainOf("com.") {
				t.Fatalf("server %s saw %s — labels leaked past the NXDOMAIN", server, n)
			}
		}
	}
}
