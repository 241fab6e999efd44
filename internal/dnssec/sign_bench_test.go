package dnssec

import (
	"testing"

	"repro/internal/dnswire"
)

// BenchmarkSign times Sign over the two-record sample RRset for each
// kind of key a world signs with: a derived P-256 key (RFC 6979, the
// testbed world's), a derived Ed25519 key (the survey world's) and a
// generated P-256 key (hedged: authd -zone, zonesign). ci.sh runs it
// once (-benchtime=1x); run it with -benchtime=2s to compare the three.
func BenchmarkSign(b *testing.B) {
	zone := dnswire.MustParseName("example.com")
	set := sampleSet(b)
	derive := func(alg dnswire.SecAlgorithm) *KeyPair {
		k, err := DeriveKey(alg, false, []byte("seed"), zone)
		if err != nil {
			b.Fatal(err)
		}
		return k
	}
	for _, tc := range []struct {
		name string
		key  *KeyPair
	}{
		{"derived-P256", derive(dnswire.AlgECDSAP256SHA256)},
		{"derived-Ed25519", derive(dnswire.AlgEd25519)},
		{"generated-P256", genKey(b, dnswire.AlgECDSAP256SHA256, false)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Sign(set, tc.key, zone, testInception, testExpiration); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
