package resolver

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/testbed"
)

// The resolver-side ablations of DESIGN.md §3b / §4 that no
// BENCHMARK.json line measures. ci.sh runs each once (-benchtime=1x) so
// that none rots; the numbers a PR may claim on are bench/'s.

// benchProbe is a never-repeated NXDOMAIN probe of the testbed's it-N
// zone, named as the paper's probes are.
func benchProbe(iterations int, unique string) dnswire.Name {
	return testbed.Subdomain{Label: fmt.Sprintf("it-%d", iterations), WantNXDOMAIN: true}.QName(unique)
}

// benchResolveNX resolves b.N fresh probes of one zone after warm warm-up
// probes (delegations, keys and, where the policy caches them, spans).
func benchResolveNX(b *testing.B, r *Resolver, iterations, warm int) {
	b.Helper()
	ctx := context.Background()
	for i := 0; i < warm; i++ {
		if _, err := r.Resolve(ctx, benchProbe(iterations, fmt.Sprintf("warm-%d", i)), dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Resolve(ctx, benchProbe(iterations, fmt.Sprintf("probe-%d", i)), dnswire.TypeA)
		if err != nil || res.RCode != dnswire.RCodeNXDomain {
			b.Fatalf("%v %v", err, res)
		}
	}
}

// BenchmarkAblationPolicyOrder measures the Item 7 trade-off on an
// over-limit negative response: checking the iteration policy first and
// skipping signature verification (the violator's shortcut) versus
// verifying the NSEC3 RRSIGs before trusting the count (compliant).
func BenchmarkAblationPolicyOrder(b *testing.B) {
	h := buildWorld(b)
	for _, mode := range []struct {
		name   string
		verify bool
	}{{"item7-compliant-verify-first", true}, {"shortcut-skip-verification", false}} {
		b.Run(mode.name, func(b *testing.B) {
			pol := compliantPolicy()
			pol.VerifyInsecureNSEC3 = mode.verify
			benchResolveNX(b, newTestResolver(b, h, pol), 500, 0)
		})
	}
}

// BenchmarkAblationAggressiveNSEC compares serving repeated NXDOMAINs
// for one zone with and without RFC 8198 aggressive NSEC3 caching. The
// cache eliminates upstream traffic but still pays the iterated hash
// per synthesis — so the win shrinks as the zone's iteration count
// grows, another consequence of violating RFC 9276 Item 2.
func BenchmarkAblationAggressiveNSEC(b *testing.B) {
	h := buildWorld(b)
	for _, mode := range []struct {
		name       string
		aggressive bool
	}{{"rfc8198-on", true}, {"rfc8198-off", false}} {
		for _, iterations := range []int{1, 150} {
			b.Run(fmt.Sprintf("%s/it-%d", mode.name, iterations), func(b *testing.B) {
				pol := compliantPolicy()
				pol.AggressiveNSEC = mode.aggressive
				benchResolveNX(b, newTestResolver(b, h, pol), iterations, 8)
			})
		}
	}
}

// BenchmarkAblationQNameMinimization measures RFC 9156's cost: the
// minimized walk sends extra per-level NS probes in exchange for not
// disclosing the full query name to every server on the path.
func BenchmarkAblationQNameMinimization(b *testing.B) {
	h := buildWorld(b)
	for _, mode := range []struct {
		name string
		min  bool
	}{{"minimized", true}, {"full-qname", false}} {
		b.Run(mode.name, func(b *testing.B) {
			pol := compliantPolicy()
			pol.QNameMinimization = mode.min
			benchResolveNX(b, newTestResolver(b, h, pol), 5, 1)
		})
	}
}
