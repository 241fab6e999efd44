package scanner

import (
	"context"
	"errors"
	"net/netip"
	"testing"

	"repro/internal/authserver"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/zone"
)

func axfrWorld(t *testing.T) (*netsim.Network, *authserver.Server, netip.AddrPort, *zone.Signed) {
	t.Helper()
	apex := dnswire.MustParseName("se")
	z := zone.New(apex, 300)
	z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.SOA{
		MName: apex.MustChild("ns"), RName: apex.MustChild("hostmaster"),
		Serial: 7, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300,
	}})
	z.MustAdd(dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: apex.MustChild("ns")}})
	z.MustAdd(dnswire.RR{Name: apex.MustChild("ns"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.53")}})
	// Three delegated registered domains, one with two NS records.
	for _, child := range []string{"alpha", "beta", "gamma"} {
		cApex := apex.MustChild(child)
		z.MustAdd(dnswire.RR{Name: cApex, Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.NS{Host: dnswire.MustParseName("ns1.op.example")}})
	}
	z.MustAdd(dnswire.RR{Name: apex.MustChild("alpha"), Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.NS{Host: dnswire.MustParseName("ns2.op.example")}})
	signed, err := z.Sign(zone.SignConfig{
		Denial: zone.DenialNSEC3, OptOut: true,
		Inception: 1709251200, Expiration: 1717200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := authserver.New()
	srv.AddZone(signed)
	net := netsim.NewNetwork(1)
	addr := netsim.Addr4(192, 6, 0, 1)
	net.Register(addr, srv)
	return net, srv, addr, signed
}

func TestTransferRefusedByDefault(t *testing.T) {
	net, _, addr, _ := axfrWorld(t)
	_, err := Transfer(context.Background(), net, addr, dnswire.MustParseName("se"))
	if !errors.Is(err, ErrTransferRefused) {
		t.Fatalf("err = %v", err)
	}
}

func TestTransferOpenZone(t *testing.T) {
	net, srv, addr, signed := axfrWorld(t)
	srv.SetTransferPolicy(dnswire.MustParseName("se"), zone.TransferOpen)
	rrs, err := Transfer(context.Background(), net, addr, dnswire.MustParseName("se"))
	if err != nil {
		t.Fatal(err)
	}
	// The transfer carries the full signed zone minus the SOA markers.
	all, err := signed.AllRecords()
	if err != nil {
		t.Fatal(err)
	}
	want := len(all) - 2
	if len(rrs) != want {
		t.Fatalf("transferred %d records, want %d", len(rrs), want)
	}
	// No SOA inside the body.
	for _, rr := range rrs {
		if rr.Type() == dnswire.TypeSOA {
			t.Fatal("SOA inside transfer body")
		}
	}
	// Delegation counting: three registered domains (alpha counted
	// once despite two NS records).
	if got := CountDelegations(dnswire.MustParseName("se"), rrs); got != 3 {
		t.Fatalf("CountDelegations = %d, want 3", got)
	}
}

func TestTransferNonApexNotImplemented(t *testing.T) {
	net, srv, addr, _ := axfrWorld(t)
	srv.SetTransferPolicy(dnswire.MustParseName("se"), zone.TransferOpen)
	_, err := Transfer(context.Background(), net, addr, dnswire.MustParseName("alpha.se"))
	if err == nil {
		t.Fatal("non-apex AXFR accepted")
	}
}

func TestAllRecordsSOADelimited(t *testing.T) {
	_, _, _, signed := axfrWorld(t)
	all, err := signed.AllRecords()
	if err != nil {
		t.Fatal(err)
	}
	if all[0].Type() != dnswire.TypeSOA || all[len(all)-1].Type() != dnswire.TypeSOA {
		t.Fatal("AllRecords not SOA-delimited")
	}
	// The body contains the NSEC3 chain and RRSIGs.
	var n3, sig int
	for _, rr := range all {
		switch rr.Type() {
		case dnswire.TypeNSEC3:
			n3++
		case dnswire.TypeRRSIG:
			sig++
		}
	}
	if n3 == 0 || sig == 0 {
		t.Fatalf("transfer body incomplete: nsec3=%d rrsig=%d", n3, sig)
	}
}
