package testbed_test

import (
	"context"
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/testbed"
)

// passThrough hides the network behind an Exchanger of another type,
// so the prober reaches it as it reaches a real socket or a decorator.
type passThrough struct{ net *netsim.Network }

func (p passThrough) Exchange(ctx context.Context, server netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	return p.net.Exchange(ctx, server, q)
}

// observationText renders everything an Observation holds, EDE text
// and error text included, so two transcripts compare line by line.
func observationText(o testbed.Observation) string {
	return fmt.Sprintf("%s it=%d nx=%v %s ad=%v ra=%v ede=%q err=%v",
		o.Label, o.Iterations, o.NXProbe, o.RCode, o.AD, o.RA, o.EDE, o.Err)
}

// TestProbeResolverPathsAgree: for every vendor profile, two cold
// validators of that profile probed under the same unique label give
// the same transcript whether the prober is handed the network itself
// or a pass-through Exchanger around it, observation by observation.
func TestProbeResolverPathsAgree(t *testing.T) {
	h, err := core.BuildTestbedWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	edeText := 0
	for i, prof := range respop.Profiles() {
		probe := func(host byte, ex netsim.Exchanger) *testbed.Transcript {
			t.Helper()
			addr := netsim.Addr4(10, 54, byte(i), host)
			h.Net.Register(addr, resolver.New(resolver.Config{
				Roots:       h.Roots,
				TrustAnchor: h.TrustAnchor,
				Exchanger:   h.Net,
				Policy:      prof.Policy,
				Now:         func() uint32 { return core.DefaultNow },
			}))
			tr, err := testbed.ProbeResolver(context.Background(), ex, addr, fmt.Sprintf("paths-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		direct, wrapped := probe(1, h.Net), probe(2, passThrough{h.Net})
		if len(direct.Observations) != len(testbed.Subdomains()) || len(wrapped.Observations) != len(direct.Observations) {
			t.Fatalf("%s: %d and %d observations, want %d each", prof.Policy.Name,
				len(direct.Observations), len(wrapped.Observations), len(testbed.Subdomains()))
		}
		for j, o := range direct.Observations {
			if o.Err != nil {
				t.Errorf("%s: %s", prof.Policy.Name, observationText(o))
			}
			for _, e := range o.EDE {
				if e.Text != "" {
					edeText++
				}
			}
			if a, b := observationText(o), observationText(wrapped.Observations[j]); a != b {
				t.Errorf("%s probe %d:\n through the network %s\n through a wrapper  %s", prof.Policy.Name, j, a, b)
			}
		}
	}
	if edeText == 0 {
		t.Error("no profile answered with EDE text: the comparison never covered it")
	}
}
