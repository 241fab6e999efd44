// Package integration runs the full measurement pipeline over real
// loopback sockets: authoritative servers and a validating resolver
// listening on 127.0.0.1 UDP/TCP, a scanner and testbed prober talking
// to them with the real client — the same binaries' data path, in-proc.
package integration

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/compliance"
	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/scanner"
	"repro/internal/testbed"
)

// TestRealSocketResolverAgainstTestbed runs the full rfc9276 testbed on
// one real UDP/TCP listener (all zones on one server) and drives a
// validating resolver and the probe client over real sockets.
func TestRealSocketResolverAgainstTestbed(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket integration")
	}
	// Build the simulated hierarchy once to obtain the signed zones.
	h, err := core.BuildTestbedWorld(21)
	if err != nil {
		t.Fatal(err)
	}
	// Re-host every zone on a single real listener.
	as := authserver.New()
	for _, sz := range h.Zones {
		as.AddZone(sz)
	}
	authSrv := &netsim.Server{Handler: as}
	authAddr, err := authSrv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer authSrv.Close()

	// A resolver over real sockets: every delegation's glue points at
	// simulated addresses, so rewrite all upstream exchanges to the
	// single real listener (it is authoritative for every zone).
	upstream := &rewriteAllExchanger{inner: &netsim.UDPExchanger{Timeout: 2 * time.Second}, to: authAddr}
	res := resolver.New(resolver.Config{
		Roots:       []netip.AddrPort{authAddr},
		TrustAnchor: h.TrustAnchor,
		Exchanger:   upstream,
		Policy:      respop.BIND2021.Policy,
		Now:         func() uint32 { return core.DefaultNow },
	})
	resSrv := &netsim.Server{Handler: res}
	resAddr, err := resSrv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer resSrv.Close()

	// Probe it with the real client.
	client := &netsim.UDPExchanger{Timeout: 2 * time.Second}
	tr, err := testbed.ProbeResolver(context.Background(), client, resAddr, "realsock")
	if err != nil {
		t.Fatal(err)
	}
	c := compliance.ClassifyResolver(tr)
	if !c.IsValidator {
		t.Fatalf("not a validator over real sockets: %+v", c)
	}
	if !c.ImplementsItem6 || c.InsecureLimit != 150 {
		t.Fatalf("classification: %+v", c)
	}

	// The same profile in-process, in the same world under the same
	// unique label, probed through the simulated network: the
	// transcript must be the real-socket one, observation by observation.
	simAddr := netsim.Addr4(10, 53, 21, 1)
	h.Net.Register(simAddr, resolver.New(resolver.Config{
		Roots:       h.Roots,
		TrustAnchor: h.TrustAnchor,
		Exchanger:   h.Net,
		Policy:      respop.BIND2021.Policy,
		Now:         func() uint32 { return core.DefaultNow },
	}))
	sim, err := testbed.ProbeResolver(context.Background(), h.Net, simAddr, "realsock")
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Observations) != len(tr.Observations) {
		t.Fatalf("%d observations in-process, %d over sockets", len(sim.Observations), len(tr.Observations))
	}
	for i, o := range tr.Observations {
		if o.Err != nil {
			t.Errorf("over sockets, %s: %v", o.Label, o.Err)
		}
		if a, b := observationText(o), observationText(sim.Observations[i]); a != b {
			t.Errorf("probe %d:\n over sockets %s\n in-process   %s", i, a, b)
		}
	}
}

// observationText renders everything an Observation holds, EDE text
// and error text included, so two transcripts compare line by line.
func observationText(o testbed.Observation) string {
	return fmt.Sprintf("%s it=%d nx=%v %s ad=%v ra=%v ede=%q err=%v",
		o.Label, o.Iterations, o.NXProbe, o.RCode, o.AD, o.RA, o.EDE, o.Err)
}

// rewriteAllExchanger redirects every upstream query to one address —
// valid because that server is authoritative for the whole test tree.
type rewriteAllExchanger struct {
	inner netsim.Exchanger
	to    netip.AddrPort
}

func (r *rewriteAllExchanger) Exchange(ctx context.Context, _ netip.AddrPort, q *dnswire.Message) (*dnswire.Message, error) {
	return r.inner.Exchange(ctx, r.to, q)
}

// TestRealSocketScanner drives the zdns-style scanner over real sockets
// against the same single-listener world through the real resolver.
func TestRealSocketScanner(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket integration")
	}
	h, err := core.BuildTestbedWorld(22)
	if err != nil {
		t.Fatal(err)
	}
	as := authserver.New()
	for _, sz := range h.Zones {
		as.AddZone(sz)
	}
	authSrv := &netsim.Server{Handler: as}
	authAddr, err := authSrv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer authSrv.Close()
	res := resolver.New(resolver.Config{
		Roots:       []netip.AddrPort{authAddr},
		TrustAnchor: h.TrustAnchor,
		Exchanger:   &rewriteAllExchanger{inner: &netsim.UDPExchanger{Timeout: 2 * time.Second}, to: authAddr},
		Policy:      respop.Cloudflare.Policy,
		Now:         func() uint32 { return core.DefaultNow },
	})
	resSrv := &netsim.Server{Handler: res}
	resAddr, err := resSrv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer resSrv.Close()

	sc := scanner.New(scanner.Config{
		Exchanger: &netsim.UDPExchanger{Timeout: 2 * time.Second},
		Resolver:  resAddr,
		Workers:   4,
		Seed:      2,
	})
	// Scan the it-100 testbed zone: NSEC3-enabled with 100 iterations.
	r := sc.ScanDomain(context.Background(), dnswire.MustParseName("it-100."+testbed.TestbedDomain))
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	c := compliance.Classify(r.Facts)
	if !c.NSEC3Enabled || c.Iterations != 100 || c.SaltLen != 0 {
		t.Fatalf("scan over real sockets misread: %+v", c)
	}
}
