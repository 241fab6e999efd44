package zone

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
)

// heroZone is the zone the paper recommends, at the size bench/'s authd
// workloads serve it: an apex with SOA and NS, an in-zone name server,
// and names TXT owners directly below the apex, to be signed with NSEC3
// at iterations 0 and no salt.
func heroZone(names int) *Zone {
	apex := name("bench.example")
	ns := apex.MustChild("ns")
	z := New(apex, 300)
	z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOA{
		MName: ns, RName: apex.MustChild("hostmaster"),
		Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300,
	}})
	z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: ns}})
	z.MustAdd(dnswire.RR{Name: ns, Class: dnswire.ClassIN, TTL: 3600, Data: mustA("192.0.2.53")})
	for i := 0; i < names; i++ {
		l := fmt.Sprintf("h%06d", i)
		z.MustAdd(dnswire.RR{Name: apex.MustChild(l), Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.TXT{Strings: []string{"v=bench " + l}}})
	}
	return z
}

// heapSampler keeps the high-water mark of the heap's object bytes
// (runtime/metrics), read every millisecond until stop: the heap peaks
// just before each collection, so the mark is what a signer's garbage
// costs in memory on top of what it keeps.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the high-water mark in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	return h.peak
}

// BenchmarkSignAll times SignAll over the 20,000-name hero zone
// prepared by SignOnDemand — every RRSIG but the DNSKEY RRset's, 40,006
// of 40,007 — and reports signatures per second and the heap high-water
// mark while signing. It is the per-layer reading of Sign's share of
// bench/'s authd set-up; ci.sh runs it once (-benchtime=1x).
func BenchmarkSignAll(b *testing.B) {
	cfg := SignConfig{
		Denial: DenialNSEC3, NSEC3: nsec3.Params{Iterations: 0},
		Inception: tInception, Expiration: tExpiration,
	}
	var sigs int
	var peak uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := heroZone(20000).SignOnDemand(cfg)
		if err != nil {
			b.Fatal(err)
		}
		before, _ := s.SigStats()
		runtime.GC()
		h := startHeapSampler()
		b.StartTimer()
		if err := s.SignAll(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		peak = max(peak, h.stop())
		made, total := s.SigStats()
		if made != total {
			b.Fatalf("SignAll made %d of %d signatures", made, total)
		}
		sigs += made - before
	}
	b.ReportMetric(float64(sigs)/b.Elapsed().Seconds(), "sigs/s")
	b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
}
