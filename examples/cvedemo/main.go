// Cvedemo demonstrates CVE-2023-50868 end to end: a resolver validating
// NXDOMAIN proofs from zones with increasing NSEC3 iteration counts
// burns measurably more CPU per query — the resource-exhaustion vector
// that pushed RFC 9276's "zeros" guidance from hygiene to urgency
// (paper §1; Gruza et al. measured up to 72× resolver CPU).
//
// The demo builds the rfc9276 testbed, then times cold NXDOMAIN
// resolutions against it-0-equivalent (valid zone, wildcard miss path),
// it-25, it-150, it-500, and the it-2501-expired bomb, printing the
// per-query validation cost.
//
//	go run ./examples/cvedemo
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/resolver"
	"repro/internal/respop"
	"repro/internal/testbed"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	h, err := core.BuildTestbedWorld(99)
	if err != nil {
		return err
	}
	// A pre-2021 validator: no iteration limit below the RFC 5155 caps
	// — the vulnerable configuration.
	res := resolver.New(resolver.Config{
		Roots:       h.Roots,
		TrustAnchor: h.TrustAnchor,
		Exchanger:   h.Net,
		Policy:      respop.Legacy2018.Policy,
		Now:         func() uint32 { return core.DefaultNow },
	})
	raddr := netsim.Addr4(10, 66, 0, 1)
	h.Net.Register(raddr, res)
	ctx := context.Background()

	// Warm the infrastructure (delegations, DNSKEYs) so the timing
	// isolates denial validation.
	warm := dnswire.NewQuery(1, dnswire.MustParseName("w.valid."+testbed.TestbedDomain), dnswire.TypeA, true)
	if _, err := h.Net.Exchange(ctx, raddr, warm); err != nil {
		return err
	}

	fmt.Println("per-query cost of validating NXDOMAIN proofs on an unlimited (pre-2021) validator:")
	fmt.Printf("  %-10s %14s %10s\n", "zone", "µs/query", "vs it-1")
	var base float64
	const samples = 40
	for _, label := range []string{"it-1", "it-10", "it-25", "it-150", "it-500"} {
		var sub testbed.Subdomain
		for _, s := range testbed.Subdomains() {
			if s.Label == label {
				sub = s
			}
		}
		start := time.Now()
		for i := 0; i < samples; i++ {
			q := dnswire.NewQuery(uint16(i), sub.QName(fmt.Sprintf("cve-%s-%d", label, i)), dnswire.TypeA, true)
			resp, err := h.Net.Exchange(ctx, raddr, q)
			if err != nil {
				return err
			}
			if resp.Header.RCode != dnswire.RCodeNXDomain {
				return fmt.Errorf("%s: unexpected %s", label, resp.Header.RCode)
			}
		}
		us := float64(time.Since(start).Microseconds()) / samples
		if base == 0 {
			base = us
		}
		fmt.Printf("  %-10s %14.1f %9.1fx\n", label, us, us/base)
	}

	fmt.Println("\nthe same probes against a CVE-patched validator (insecure above 50):")
	patched := resolver.New(resolver.Config{
		Roots:       h.Roots,
		TrustAnchor: h.TrustAnchor,
		Exchanger:   h.Net,
		Policy:      respop.BINDPatched.Policy,
		Now:         func() uint32 { return core.DefaultNow },
	})
	paddr := netsim.Addr4(10, 66, 0, 2)
	h.Net.Register(paddr, patched)
	if _, err := h.Net.Exchange(ctx, paddr, warm); err != nil {
		return err
	}
	fmt.Printf("  %-10s %14s %10s\n", "zone", "µs/query", "vs it-1")
	base = 0
	for _, label := range []string{"it-1", "it-150", "it-500"} {
		var sub testbed.Subdomain
		for _, s := range testbed.Subdomains() {
			if s.Label == label {
				sub = s
			}
		}
		start := time.Now()
		for i := 0; i < samples; i++ {
			q := dnswire.NewQuery(uint16(i), sub.QName(fmt.Sprintf("pat-%s-%d", label, i)), dnswire.TypeA, true)
			if _, err := h.Net.Exchange(ctx, paddr, q); err != nil {
				return err
			}
		}
		us := float64(time.Since(start).Microseconds()) / samples
		if base == 0 {
			base = us
		}
		fmt.Printf("  %-10s %14.1f %9.1fx\n", label, us, us/base)
	}
	fmt.Println("\nthe patch caps the resolver's work: above its limit it answers insecurely without")
	fmt.Println("validating the expensive proof — RFC 9276 Items 6/8 as DoS mitigation. The residual")
	fmt.Println("growth on the patched path is the *authoritative server's* own per-query hashing,")
	fmt.Println("which is why Items 1–3 target zone owners too. These end-to-end numbers include")
	fmt.Println("signature verification and transport; run")
	fmt.Println("  go test -run='^$' -bench=BenchmarkCVE202350868ProofCost ./internal/nsec3")
	fmt.Println("for the isolated denial-validation cost (~45x from it-1 to it-500).")
	return nil
}
