package netsim

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// TestPooledBuffersConcurrentQueries is the regression test for the
// pooled UDP read loop: each datagram's buffer carries the query, has
// the response appended behind it, and is recycled through a sync.Pool
// the moment WriteTo returns. If that window were wrong — a buffer Put
// while a packet goroutine still reads it, or a response rendered into
// a buffer another packet already claimed — concurrent queries would
// bleed into each other's names and payloads. Every response must match its own
// query exactly; run under -race (CI does) this also catches the
// textbook use-after-Put data race.
func TestPooledBuffersConcurrentQueries(t *testing.T) {
	h := HandlerFunc(func(ctx context.Context, from netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		return &dnswire.Message{
			Header:    dnswire.Header{ID: q.Header.ID, Response: true},
			Questions: q.Questions,
			Answers: []dnswire.RR{{
				Name: q.Question().Name, Class: dnswire.ClassIN, TTL: 1,
				Data: dnswire.TXT{Strings: []string{q.Question().Name.String()}},
			}},
		}
	})
	srv := &Server{Handler: h}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers = 8
	const perWorker = 25
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &UDPExchanger{Timeout: 5 * time.Second}
			for i := 0; i < perWorker; i++ {
				name := dnswire.MustParseName(fmt.Sprintf("w%d-q%d.pool.example.", w, i))
				q := dnswire.NewQuery(uint16(w*perWorker+i), name, dnswire.TypeTXT, false)
				resp, err := client.Exchange(context.Background(), addr, q)
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
				if resp.Header.ID != q.Header.ID {
					errs <- fmt.Errorf("worker %d query %d: ID %d, want %d", w, i, resp.Header.ID, q.Header.ID)
					return
				}
				if got := resp.Question().Name; got != name {
					errs <- fmt.Errorf("worker %d query %d: question %q bled from another packet, want %q", w, i, got, name)
					return
				}
				if len(resp.Answers) != 1 || resp.Answers[0].Data.(dnswire.TXT).Strings[0] != name.String() {
					errs <- fmt.Errorf("worker %d query %d: answer %v, want TXT %q", w, i, resp.Answers, name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestExchangeAllocatesOnlyTheDecodes pins the simulated network's own
// cost at zero: an exchange whose handler returns a prebuilt response
// allocates what the adapter's decoding of the query and the caller's
// decoding of the response allocate, and nothing for the one buffer
// both directions are rendered into — it comes from the pool, already
// grown.
func TestExchangeAllocatesOnlyTheDecodes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; steady-state alloc counts are nondeterministic")
	}
	apex := dnswire.MustParseName("bench.example")
	qname := apex.MustChild("u0123456789abcdef")
	query := dnswire.NewQuery(7, qname, dnswire.TypeA, true)
	sig := func(owner dnswire.Name, covered dnswire.Type) dnswire.RR {
		return dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.RRSIG{
			TypeCovered: covered, Algorithm: dnswire.AlgECDSAP256SHA256, Labels: uint8(owner.CountLabels()),
			OrigTTL: 300, KeyTag: 4711, SignerName: apex, Signature: make([]byte, 64)}}
	}
	resp := &dnswire.Message{
		Header:    dnswire.Header{ID: 7, Response: true, Authoritative: true, RCode: dnswire.RCodeNXDomain},
		Questions: query.Questions,
		Authority: []dnswire.RR{
			{Name: apex, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.SOA{MName: apex.MustChild("ns"), RName: apex.MustChild("hostmaster")}},
			sig(apex, dnswire.TypeSOA),
		},
		Additional: []dnswire.RR{(&dnswire.OPT{UDPSize: dnswire.DefaultUDPSize, DO: true}).AsRR()},
	}
	for _, h := range []string{"0p9mhaveqvm6t7vbl5lop2u3t2rp3tom", "b4um86eghhds6nea196smvmlo4ors995", "q04jkcevqvmu85r014c7dkba38o0ji5r"} {
		owner := apex.MustChild(h)
		resp.Authority = append(resp.Authority, dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.NSEC3{
			HashAlg: dnswire.NSEC3HashSHA1, NextHashedOwner: make([]byte, 20), Types: dnswire.NewTypeBitmap(dnswire.TypeTXT, dnswire.TypeRRSIG)}},
			sig(owner, dnswire.TypeNSEC3))
	}
	n := NewNetwork(1)
	addr := Addr4(192, 0, 2, 53)
	n.Register(addr, HandlerFunc(func(context.Context, netip.AddrPort, *dnswire.Message) *dnswire.Message { return resp }))

	decode := func(m *dnswire.Message) float64 {
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := dnswire.Unpack(wire); err != nil {
				t.Fatal(err)
			}
		})
	}
	want := decode(query) + decode(resp)
	ctx := context.Background()
	got := testing.AllocsPerRun(200, func() {
		if _, err := n.Exchange(ctx, addr, query); err != nil {
			t.Fatal(err)
		}
	})
	if got != want {
		t.Errorf("Exchange allocates %.0f times per query, the two decodes %.0f: the difference is the network's own", got, want)
	}
}
