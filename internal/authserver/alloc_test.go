package authserver

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
	"repro/internal/zone"
)

// TestHandleAllocations pins what the Message-level serving path — Handle
// dispatch plus PackBuffer into a reused buffer, what netsim's adapter
// and a memo miss inside ServeWire both run — allocates per query on a
// 16-name iterations-0 NSEC3 zone: the response Message and its section
// slices, nothing per record. bench/ reads the same path as
// authserver.handle_allocs.{positive,nxdomain}; this is the ceiling that
// fails tier-1 when a regression slips past the static analyzers (an
// NXDOMAIN cost 66 when every proof RR was rebuilt per query).
func TestHandleAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race")
	}
	apex := dnswire.MustParseName("qps.example.")
	z := rawZone("qps.example.")
	for i := 0; i < 16; i++ {
		z.MustAdd(dnswire.RR{Name: apex.MustChild(fmt.Sprintf("h%02d", i)), Class: dnswire.ClassIN,
			TTL: 300, Data: dnswire.TXT{Strings: []string{"x"}}})
	}
	signed, err := z.Sign(zone.SignConfig{
		Denial: zone.DenialNSEC3, NSEC3: nsec3.Params{Iterations: 0},
		Inception: tInception, Expiration: tExpiration,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New()
	srv.AddZone(signed)

	ctx := context.Background()
	buf := make([]byte, 0, dnswire.DefaultUDPSize)
	for _, tc := range []struct {
		name    string
		label   string
		qtype   dnswire.Type
		rcode   dnswire.RCode
		ceiling float64
	}{
		{"positive", "h%02d", dnswire.TypeTXT, dnswire.RCodeNoError, 8},
		{"NXDOMAIN with its NSEC3 proof", "missing-%02d", dnswire.TypeA, dnswire.RCodeNXDomain, 7},
	} {
		queries := make([]*dnswire.Message, 16)
		for i := range queries {
			queries[i] = dnswire.NewQuery(uint16(i), apex.MustChild(fmt.Sprintf(tc.label, i)), tc.qtype, true)
		}
		i := 0
		serve := func() {
			resp := srv.Handle(ctx, wireFrom, queries[i%len(queries)])
			i++
			if resp == nil || resp.Header.RCode != tc.rcode {
				t.Fatalf("%s: resp=%v", tc.name, resp)
			}
			if buf, err = resp.PackBuffer(buf[:0], dnswire.DefaultUDPSize, true); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(200, serve); got > tc.ceiling {
			t.Errorf("%s: Handle + PackBuffer allocates %.0f times per query, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}
