package authserver

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
	"repro/internal/zone"
)

// qpsServer serves qps.example., an iterations-0 NSEC3 zone with the
// given number of TXT owners, labelled by format, and every signature
// made.
func qpsServer(t *testing.T, names int, format string) (*Server, dnswire.Name) {
	t.Helper()
	apex := dnswire.MustParseName("qps.example.")
	z := rawZone("qps.example.")
	for i := 0; i < names; i++ {
		z.MustAdd(dnswire.RR{Name: apex.MustChild(fmt.Sprintf(format, i)), Class: dnswire.ClassIN,
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
	return srv, apex
}

// TestHandleAllocations pins what the Message-level door — Handle plus
// PackBuffer into a reused buffer, what netsim's adapter runs for a
// wrapped server — allocates per query on a 16-name iterations-0 NSEC3
// zone: the scratch its Message lives in and the sections of an Answer
// that is not reused (two growths for an RRset and its RRSIG, one
// presized authority section for a denial), nothing per record. bench/
// reads the same path as authserver.handle_allocs.{positive,nxdomain};
// this is the ceiling that fails tier-1 when a regression slips past the
// static analyzers (it was 8 / 7 while Handle built its response piece by
// piece, and an NXDOMAIN cost 66 when every proof RR was rebuilt per
// query). ServeWire's own path is TestServeWireMissAllocations below.
func TestHandleAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race")
	}
	srv, apex := qpsServer(t, 16, "h%02d")
	var err error
	ctx := context.Background()
	buf := make([]byte, 0, dnswire.DefaultUDPSize)
	for _, tc := range []struct {
		name    string
		label   string
		qtype   dnswire.Type
		rcode   dnswire.RCode
		ceiling float64
	}{
		{"positive", "h%02d", dnswire.TypeTXT, dnswire.RCodeNoError, 3},
		{"NXDOMAIN with its NSEC3 proof", "missing-%02d", dnswire.TypeA, dnswire.RCodeNXDomain, 2},
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

// TestServeWireMissAllocations pins what the wire-level door allocates
// for a question it has never seen — what every survey, resolver-study
// and authd_unique query is. The 4,096 questions of each kind are all
// different, so none is a memo hit and none is admitted; the table of
// queries seen once is at its full size before counting starts.
func TestServeWireMissAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race")
	}
	const distinct = 4096
	srv, _ := qpsServer(t, distinct, "h%04d")
	ctx := context.Background()
	dst := make([]byte, 0, 2*dnswire.DefaultUDPSize)
	for i := 0; i < memoLimit; i++ {
		srv.ServeWire(ctx, dst, wireFrom, wireQuery(t, 0, fmt.Sprintf("warm-%04d.qps.example.", i), dnswire.TypeA, true), dnswire.DefaultUDPSize)
	}
	for _, tc := range []struct {
		name    string
		label   string
		qtype   dnswire.Type
		rcode   dnswire.RCode
		ceiling float64
	}{
		{"positive", "h%04d", dnswire.TypeTXT, dnswire.RCodeNoError, 1},
		{"NXDOMAIN with its NSEC3 proof", "missing-%04d", dnswire.TypeA, dnswire.RCodeNXDomain, 1},
	} {
		queries := make([][]byte, distinct)
		for i := range queries {
			queries[i] = wireQuery(t, uint16(i), fmt.Sprintf(tc.label+".qps.example.", i), tc.qtype, true)
		}
		i := 0
		serve := func() {
			out := srv.ServeWire(ctx, dst, wireFrom, queries[i], dnswire.DefaultUDPSize)
			i++
			if len(out) < 12 || dnswire.RCode(out[3]&0x0F) != tc.rcode {
				t.Fatalf("%s: response %x", tc.name, out)
			}
		}
		if got := testing.AllocsPerRun(distinct-1, serve); got != tc.ceiling {
			t.Errorf("%s: a first-sight ServeWire allocates %.0f times, want %.0f", tc.name, got, tc.ceiling)
		}
	}
	if a, _ := memoSize(srv); a != 0 {
		t.Errorf("%d answers admitted; every question was to be new", a)
	}
}
