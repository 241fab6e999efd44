package netsim

import (
	"bytes"
	"context"
	"encoding/hex"
	"net/netip"
	"os"
	"strings"
	"testing"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/nsec3"
	"repro/internal/obs"
	"repro/internal/zone"
)

// wireTestServer hosts a small NSEC3 zone: the WireHandler the tests
// below put beside its own Handle behind serve's adapter.
func wireTestServer(t testing.TB) (*authserver.Server, *obs.Registry) {
	t.Helper()
	apex := dnswire.MustParseName("example.com")
	z := zone.New(apex, 300)
	z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOA{
		MName: apex.MustChild("ns"), RName: apex.MustChild("hostmaster"), Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300}})
	z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: apex.MustChild("ns")}})
	z.MustAdd(dnswire.RR{Name: apex.MustChild("ns"), Class: dnswire.ClassIN, TTL: 300, Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.53")}})
	z.MustAdd(dnswire.RR{Name: apex.MustChild("www"), Class: dnswire.ClassIN, TTL: 300, Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	sz, err := z.Sign(zone.SignConfig{Denial: zone.DenialNSEC3, NSEC3: nsec3.Params{Iterations: 1},
		Inception: 1709251200, Expiration: 1717200000})
	if err != nil {
		t.Fatal(err)
	}
	srv, reg := authserver.New(), obs.NewRegistry()
	srv.Instrument(reg)
	srv.AddZone(sz)
	srv.SetTransferPolicy(apex, zone.TransferOpen)
	return srv, reg
}

// serveThrice asks srv the same octets three times — a miss, the sight
// that admits them, a hit — through its wire-level door and through
// the adapter around its Handle, for a stream and for a datagram, and
// requires the same octets or the same drop each time. Octets that do
// not decode, carry QR or ask nothing must never be admitted.
func serveThrice(t *testing.T, srv *authserver.Server, reg *obs.Registry, query []byte) {
	t.Helper()
	ctx := context.Background()
	from := Addr4(10, 0, 0, 1)
	admitted := reg.Counter("authserver_answer_memo_admitted_total", "")
	before := admitted.Value()
	for _, udpSize := range []int{0, dnswire.DefaultUDPSize} {
		for i := 0; i < 3; i++ {
			got := serve(ctx, srv, nil, from, query, udpSize)
			want := serve(ctx, HandlerFunc(srv.Handle), nil, from, query, udpSize)
			if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("ask %d for %d octets of\n %x\nServeWire\n %x\nthe adapter around Handle\n %x", i+1, udpSize, query, got, want)
			}
			if len(query) < 12 && got != nil {
				t.Fatalf("%d octets answered: %x", len(query), got)
			}
		}
	}
	q, err := dnswire.Unpack(query)
	if garbage := err != nil || q.Header.Response || len(q.Questions) == 0; garbage && admitted.Value() != before {
		t.Fatalf("garbage admitted to the answer memo: %x", query)
	}
	// The size serve reads off the wire is the one the decoder finds.
	if err == nil {
		want := 0
		if opt, ok := q.OPT(); ok {
			want = int(opt.UDPSize)
		}
		if adv := dnswire.AdvertisedUDPSize(query); adv != want {
			t.Fatalf("AdvertisedUDPSize = %d, Unpack finds %d\n %x", adv, want, query)
		}
	}
}

// wireSeeds are queries the test zone answers every way it can, and
// dnswire's hostile corpus.
func wireSeeds(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, name := range []string{"example.com", "www.example.com", "gone.example.com", "elsewhere.test"} {
		for _, qt := range []dnswire.Type{dnswire.TypeA, dnswire.TypeDNSKEY, dnswire.TypeAXFR} {
			for _, do := range []bool{false, true} {
				q := dnswire.NewQuery(uint16(len(out)), dnswire.MustParseName(name), qt, do)
				if !do {
					q.Additional = nil
				}
				wire, err := q.Pack()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, wire)
			}
		}
	}
	data, err := os.ReadFile("../dnswire/testdata/hostile.hex")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		wire, err := hex.DecodeString(line[strings.LastIndex(line, " ")+1:])
		if err != nil {
			t.Fatalf("hostile.hex: %v", err)
		}
		out = append(out, wire)
	}
	return out
}

func TestServeWireMatchesAdapter(t *testing.T) {
	srv, reg := wireTestServer(t)
	seeds := wireSeeds(t)
	for _, query := range seeds {
		serveThrice(t, srv, reg, query)
	}
	if hits := reg.Counter("authserver_answer_memo_hits_total", "").Value(); hits == 0 {
		t.Errorf("no memo hit among %d seeds asked six times each", len(seeds))
	}
}

// FuzzServeWire holds ServeWire to the adapter around Handle on
// whatever the fuzzer finds.
func FuzzServeWire(f *testing.F) {
	srv, reg := wireTestServer(f)
	for _, query := range wireSeeds(f) {
		f.Add(query)
	}
	f.Fuzz(func(t *testing.T, query []byte) {
		serveThrice(t, srv, reg, query)
	})
}
