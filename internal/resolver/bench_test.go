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

// benchResolveNX resolves b.N fresh probes of one zone.
func benchResolveNX(b *testing.B, r *Resolver, iterations int) {
	b.Helper()
	ctx := context.Background()
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
			benchResolveNX(b, newTestResolver(b, h, pol), 500)
		})
	}
}
