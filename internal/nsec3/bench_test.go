package nsec3

import (
	"fmt"
	"testing"

	"repro/internal/dnswire"
)

// The paper-figure ablations of DESIGN.md §3 / §4 that no BENCHMARK.json
// line measures. ci.sh runs each once (-benchtime=1x) so that none rots;
// the numbers a PR may claim on are bench/'s.

// benchChain builds a 501-name chain for the ablation benches.
func benchChain(b *testing.B, iters uint16) (*Chain, map[dnswire.Name]dnswire.TypeBitmap) {
	b.Helper()
	apex := dnswire.MustParseName("bench.example")
	names := map[dnswire.Name]dnswire.TypeBitmap{
		apex: dnswire.NewTypeBitmap(dnswire.TypeSOA, dnswire.TypeNS),
	}
	for i := 0; i < 500; i++ {
		names[apex.MustChild(fmt.Sprintf("host%03d", i))] = dnswire.NewTypeBitmap(dnswire.TypeA)
	}
	c, err := BuildChain(apex, Params{Alg: dnswire.NSEC3HashSHA1, Iterations: iters}, names, false, 300)
	if err != nil {
		b.Fatal(err)
	}
	return c, names
}

// BenchmarkCVE202350868ProofCost measures the resolver-side denial
// validation (closest-encloser search + covering checks) as the zone's
// iteration count grows — the attack surface of CVE-2023-50868. The
// query is the testbed's shape: one label under an existing leaf.
func BenchmarkCVE202350868ProofCost(b *testing.B) {
	qname := dnswire.MustParseName("bench.host001.bench.example")
	for _, iters := range []uint16{1, 25, 150, 500} {
		b.Run(fmt.Sprintf("it-%d", iters), func(b *testing.B) {
			c, names := benchChain(b, iters)
			proof, err := c.ProveNXDOMAIN(qname, existsFn(names))
			if err != nil {
				b.Fatal(err)
			}
			var rrs []dnswire.RR
			for _, r := range proofRecords(proof) {
				rrs = append(rrs, c.RRFor(r, 300))
			}
			set, err := ExtractResponseSet(rrs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := set.VerifyNXDOMAIN(qname); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHashMemo compares serving proofs from a prebuilt
// (hash-memoized) chain against rebuilding the chain per query — the
// design choice that makes the authoritative side one iterated hash
// per negative answer (the next-closer name's; the closest encloser is
// indexed and its wildcard remembered per record).
func BenchmarkAblationHashMemo(b *testing.B) {
	qname := dnswire.MustParseName("nope.bench.example")
	b.Run("memoized-chain", func(b *testing.B) {
		c, names := benchChain(b, 10)
		exists := existsFn(names)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.ProveNXDOMAIN(qname, exists); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild-per-query", func(b *testing.B) {
		_, names := benchChain(b, 10)
		exists := existsFn(names)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := BuildChain("bench.example.", Params{Alg: dnswire.NSEC3HashSHA1, Iterations: 10}, names, false, 300)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.ProveNXDOMAIN(qname, exists); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationProofSearch compares the chain's binary search
// against a linear scan over the sorted records.
func BenchmarkAblationProofSearch(b *testing.B) {
	c, _ := benchChain(b, 0)
	qname := dnswire.MustParseName("missing.bench.example")
	h, err := Hash(qname, c.Params)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary-search", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := c.Cover(qname); err != nil || !ok {
				b.Fatal("cover failed")
			}
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			found := false
			for _, rec := range c.Records {
				if Covers(rec.OwnerHash, rec.RR.NextHashedOwner, h) {
					found = true
					break
				}
			}
			if !found {
				b.Fatal("cover failed")
			}
		}
	})
}
