// Resolvertest is a miniature §5.2: stand up rfc9276-in-the-wild.com
// with its 49 crafted subdomains, run a handful of resolvers with
// different vendor policies against it, and print each one's probe
// transcript summary and RFC 9276 classification.
//
//	go run ./examples/resolvertest
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/authserver"
	"repro/internal/compliance"
	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/testbed"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the demo to w.
func run(w io.Writer) error {
	h, err := core.BuildTestbedWorld(7)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "testbed up: %d zones under %s (49 subdomains + it-2501-expired)\n\n",
		len(h.Zones), testbed.TestbedDomain)
	// The server-side query log (§4.2) is this program's to attach.
	qlog := authserver.NewQueryLog(1 << 16)
	for _, srv := range h.Servers {
		srv.Log = qlog
	}

	profiles := []respop.Profile{
		respop.BIND2021, respop.BINDPatched, respop.GooglePublicDNS,
		respop.Cloudflare, respop.Technitium, respop.StrictZero,
		respop.Legacy2018, respop.Item7Violator, respop.ThreePhase,
	}
	ctx := context.Background()
	for i, prof := range profiles {
		res := resolver.New(resolver.Config{
			Roots:       h.Roots,
			TrustAnchor: h.TrustAnchor,
			Exchanger:   h.Net,
			Policy:      prof.Policy,
			Now:         func() uint32 { return core.DefaultNow },
		})
		addr := netsim.Addr4(10, 53, 0, byte(i+1))
		h.Net.Register(addr, res)
		tr, err := testbed.ProbeResolver(ctx, h.Net, addr, fmt.Sprintf("demo-%d", i))
		if err != nil {
			return err
		}
		c := compliance.ClassifyResolver(tr)
		fmt.Fprintf(w, "%-22s (%s)\n", prof.Policy.Name, prof.Vendor)
		valid, _ := tr.Find("valid")
		expired, _ := tr.Find("expired")
		it1, _ := tr.Find("it-1")
		it151, _ := tr.Find("it-151")
		it500, _ := tr.Find("it-500")
		bomb, _ := tr.Find("it-2501-expired")
		show := func(label string, o testbed.Observation) {
			ad := ""
			if o.AD {
				ad = "+AD"
			}
			ede := ""
			if len(o.EDE) > 0 {
				ede = fmt.Sprintf("  [%s]", o.EDE[0])
			}
			fmt.Fprintf(w, "    %-16s %s%s%s\n", label, o.RCode, ad, ede)
		}
		show("valid", valid)
		show("expired", expired)
		show("it-1", it1)
		show("it-151", it151)
		show("it-500", it500)
		show("it-2501-expired", bomb)
		fmt.Fprintf(w, "    classification: validator=%v Item6(limit=%d)=%v Item8(from=%d)=%v "+
			"Item7-violation=%v three-phase=%v EDE27=%v\n\n",
			c.IsValidator, c.InsecureLimit, c.ImplementsItem6,
			c.ServfailFrom, c.ImplementsItem8, c.Item7Violation, c.ThreePhase, c.EDE27)
	}

	// Forwarder detection via the server-side query log (§4.2).
	srcs := qlog.SourcesFor(func(n dnswire.Name) bool {
		return n.IsSubdomainOf(dnswire.MustParseName(testbed.TestbedDomain))
	})
	fmt.Fprintf(w, "server-side log saw %d distinct sources hit the testbed name servers\n", len(srcs))
	return nil
}
