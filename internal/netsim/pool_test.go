package netsim

import (
	"context"
	"fmt"
	"net"
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
// cost, exactly: an exchange whose handler returns a prebuilt response
// allocates what the adapter's decoding of the query and the caller's
// decoding of the response allocate, and nothing for the one buffer
// both directions are rendered into — it comes from the pool, already
// grown. Exactly that holds for a response to a question the network
// has not carried before and for a response past
// dnswire.DefaultUDPSize, however often it repeats. Octets after the ID
// it has carried twice come back as the Message decoded for them then:
// under the same ID a repeat costs only the query's decode, under a new
// ID that and the one copy of the Message that carries the asker's ID.
func TestExchangeAllocatesOnlyTheDecodes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; steady-state alloc counts are nondeterministic")
	}
	apex := dnswire.MustParseName("bench.example")
	query := dnswire.NewQuery(7, apex.MustChild("u0123456789abcdef"), dnswire.TypeA, true)
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
	// transfer is the same response with answers past a datagram.
	transfer := *resp
	for i := range 40 {
		transfer.Answers = append(transfer.Answers, dnswire.RR{Name: query.Question().Name, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.TXT{Strings: []string{fmt.Sprintf("record %02d of a response too long for one datagram", i)}}})
	}
	addr := Addr4(192, 0, 2, 53)
	ctx := context.Background()
	const runs = 200
	// exchanges is what one exchange allocates on a network whose
	// handler answers with r under the query's ID and question; next
	// gives each exchange its query.
	exchanges := func(r *dnswire.Message, next func() *dnswire.Message) float64 {
		n := NewNetwork(1)
		n.Register(addr, HandlerFunc(func(_ context.Context, _ netip.AddrPort, q *dnswire.Message) *dnswire.Message {
			r.Header.ID, r.Questions = q.Header.ID, q.Questions
			return r
		}))
		return testing.AllocsPerRun(runs, func() {
			if _, err := n.Exchange(ctx, addr, next()); err != nil {
				t.Fatal(err)
			}
		})
	}
	decode := func(m *dnswire.Message) float64 {
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(runs, func() {
			if _, err := dnswire.Unpack(wire); err != nil {
				t.Fatal(err)
			}
		})
	}
	if wire, err := transfer.Pack(); err != nil || len(wire) <= dnswire.DefaultUDPSize {
		t.Fatalf("transfer response is %d octets (%v), want more than %d", len(wire), err, dnswire.DefaultUDPSize)
	}
	// fresh holds one query per call AllocsPerRun makes, each under ID 7
	// with a name of the same length as query's and no other's.
	fresh := make([]*dnswire.Message, runs+1)
	for i := range fresh {
		fresh[i] = dnswire.NewQuery(7, apex.MustChild(fmt.Sprintf("u%016x", i)), dnswire.TypeA, true)
	}
	newQuestion := func() *dnswire.Message { q := fresh[0]; fresh = fresh[1:]; return q }
	sameID := func() *dnswire.Message { return query }
	renumbered := *query
	newID := func() *dnswire.Message { renumbered.Header.ID++; return &renumbered }
	decodeQuery, decodeResp := decode(query), decode(resp)
	for _, c := range []struct {
		name string
		resp *dnswire.Message
		next func() *dnswire.Message
		want float64
	}{
		{"new question", resp, newQuestion, decodeQuery + decodeResp},
		{"same octets, same ID", resp, sameID, decodeQuery},
		{"same octets, new ID", resp, newID, decodeQuery + 1},
		{"over a datagram", &transfer, sameID, decodeQuery + decode(&transfer)},
	} {
		if got := exchanges(c.resp, c.next); got != c.want {
			t.Errorf("%s: Exchange allocates %.0f times per query, want %.0f: the difference is the network's own", c.name, got, c.want)
		}
	}
}

// echoWire answers a query with its own octets, QR set. It allocates
// nothing, so what a loopback exchange with it allocates is the
// transport's.
type echoWire struct{ echoHandler }

func (echoWire) ServeWire(_ context.Context, dst []byte, _ netip.AddrPort, query []byte, _ int) []byte {
	dst = append(dst, query...)
	dst[len(dst)-len(query)+2] |= 0x80
	return dst
}

// TestServeUDPAllocs pins what the real-socket UDP loop (serveUDP and
// servePacket) allocates per query, exactly: the *net.UDPAddr that
// ReadFrom returns and its IP, and the closure the go statement hands
// servePacket's arguments in. Both packet buffers come from their
// pools already grown, and a connected client socket allocates
// nothing, so a fourth allocation is the loop's.
func TestServeUDPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; steady-state alloc counts are nondeterministic")
	}
	srv := &Server{Handler: echoWire{}}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	query, err := dnswire.NewQuery(9, dnswire.MustParseName("udp.pool.example"), dnswire.TypeA, true).Pack()
	if err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, 512)
	const want = 3
	got := testing.AllocsPerRun(500, func() {
		if _, err := conn.Write(query); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(resp)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(query) || resp[2]&0x80 == 0 {
			t.Fatalf("response %x to query %x", resp[:n], query)
		}
	})
	if got != want {
		t.Errorf("a UDP query costs the serve loop %.0f allocations, want %d", got, want)
	}
}
