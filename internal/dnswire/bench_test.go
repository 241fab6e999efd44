package dnswire

import (
	"fmt"
	"testing"
)

// BenchmarkAblationCompression measures name compression's effect on
// encoding cost and wire size for a referral-shaped message (DESIGN.md
// §4, ablation 3; no BENCHMARK.json line renders one message both ways).
// ci.sh runs it once (-benchtime=1x) so that it cannot rot.
func BenchmarkAblationCompression(b *testing.B) {
	msg := &Message{
		Header:    Header{ID: 1, Response: true},
		Questions: []Question{{Name: "host.sub.example.com.", Type: TypeA, Class: ClassIN}},
	}
	for i := 0; i < 8; i++ {
		msg.Authority = append(msg.Authority, RR{
			Name: "sub.example.com.", Class: ClassIN, TTL: 3600,
			Data: NS{Host: MustParseName(fmt.Sprintf("ns%d.sub.example.com", i))},
		})
	}
	for _, mode := range []struct {
		name     string
		compress bool
	}{{"compressed", true}, {"uncompressed", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var size int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wire, err := msg.PackBuffer(nil, 0, mode.compress)
				if err != nil {
					b.Fatal(err)
				}
				size = len(wire)
			}
			b.ReportMetric(float64(size), "wire-bytes")
		})
	}
}
