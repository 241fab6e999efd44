package population

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/testbed"
)

// BenchmarkDeploy times one lazy deployment of a 3,000-domain universe
// — a survey shard's size: the root, all 1,449 TLDs, the operators'
// infrastructure zones and the domains — with a fresh SignCache each
// time, so every op mints every key and DS the build plans (the root
// alone is built). ci.sh runs it once (-benchtime=1x); run it at
// -cpu 1,2 to see the keys phase fan out.
func BenchmarkDeploy(b *testing.B) {
	u, err := Generate(Config{Registered: 3000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := []DeployOption{WithSignCache(testbed.NewSignCache()), WithLazySigning()}
		if _, err := Deploy(u, netsim.NewNetwork(1), 1709251200, 1717200000, opts...); err != nil {
			b.Fatal(err)
		}
	}
}
