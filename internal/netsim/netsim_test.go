package netsim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/obs"
)

// echoHandler answers every query with NOERROR and a fixed TXT record.
type echoHandler struct{ txt string }

func (h echoHandler) Handle(ctx context.Context, from netip.AddrPort, q *dnswire.Message) *dnswire.Message {
	resp := &dnswire.Message{
		Header: dnswire.Header{
			ID: q.Header.ID, Response: true, Authoritative: true,
			RecursionDesired: q.Header.RecursionDesired,
		},
		Questions: q.Questions,
	}
	resp.Answers = append(resp.Answers, dnswire.RR{
		Name: q.Question().Name, Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.TXT{Strings: []string{h.txt}},
	})
	if opt, ok := q.OPT(); ok {
		resp.Additional = append(resp.Additional, (&dnswire.OPT{UDPSize: dnswire.DefaultUDPSize, DO: opt.DO}).AsRR())
	}
	return resp
}

func TestNetworkExchange(t *testing.T) {
	n := NewNetwork(1)
	addr := Addr4(192, 0, 2, 1)
	n.Register(addr, echoHandler{txt: "hello"})
	q := dnswire.NewQuery(42, dnswire.MustParseName("test.example"), dnswire.TypeTXT, false)
	resp, err := n.Exchange(context.Background(), addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.ID != 42 || len(resp.Answers) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if got := resp.Answers[0].Data.(dnswire.TXT).Strings[0]; got != "hello" {
		t.Fatalf("txt = %q", got)
	}
}

func TestNetworkUnreachable(t *testing.T) {
	n := NewNetwork(1)
	q := dnswire.NewQuery(1, dnswire.MustParseName("x."), dnswire.TypeA, false)
	_, err := n.Exchange(context.Background(), Addr4(203, 0, 113, 99), q)
	if !errors.Is(err, ErrHostUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestNetworkUnregister(t *testing.T) {
	n := NewNetwork(1)
	addr := Addr4(192, 0, 2, 2)
	n.Register(addr, echoHandler{})
	if _, ok := n.Lookup(addr); !ok {
		t.Fatal("host not registered")
	}
	n.Unregister(addr)
	if _, ok := n.Lookup(addr); ok {
		t.Fatal("host not unregistered")
	}
}

func TestNetworkLoss(t *testing.T) {
	n := NewNetwork(7)
	n.LossRate = 1.0
	addr := Addr4(192, 0, 2, 3)
	n.Register(addr, echoHandler{})
	q := dnswire.NewQuery(1, dnswire.MustParseName("x."), dnswire.TypeA, false)
	if _, err := n.Exchange(context.Background(), addr, q); !errors.Is(err, ErrPacketLost) {
		t.Fatalf("err = %v", err)
	}
	// Statistical loss: about half at 0.5. The draw is a function of
	// the query, so each draw sends a query under a new ID.
	n.LossRate = 0.5
	lost := 0
	for i := 0; i < 400; i++ {
		q.Header.ID = uint16(i)
		if _, err := n.Exchange(context.Background(), addr, q); err != nil {
			lost++
		}
	}
	if lost < 120 || lost > 280 {
		t.Fatalf("lost %d/400 at 50 %% loss", lost)
	}
}

// TestNetworkLossPure: whether a query is lost depends on the query
// and the server, not on what else is in flight. 400 distinct queries
// lose the same set sent one by one and from 8 goroutines at once.
func TestNetworkLossPure(t *testing.T) {
	n := NewNetwork(7)
	n.LossRate = 0.5
	addr := Addr4(192, 0, 2, 5)
	n.Register(addr, echoHandler{})
	const queries, workers = 400, 8
	lostAt := func(i int) bool {
		q := dnswire.NewQuery(uint16(i), dnswire.MustParseName(fmt.Sprintf("q%d.example.", i)), dnswire.TypeA, false)
		_, err := n.Exchange(context.Background(), addr, q)
		if err != nil && !errors.Is(err, ErrPacketLost) {
			t.Errorf("query %d: %v", i, err)
		}
		return err != nil
	}
	serial := make([]bool, queries)
	lost := 0
	for i := range serial {
		if serial[i] = lostAt(i); serial[i] {
			lost++
		}
	}
	if lost < 120 || lost > 280 {
		t.Fatalf("lost %d/%d at 50 %% loss", lost, queries)
	}
	parallel := make([]bool, queries)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < queries; i += workers {
				parallel[i] = lostAt(i)
			}
		}()
	}
	wg.Wait()
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("query %d: lost %v serially, %v from %d goroutines", i, serial[i], parallel[i], workers)
		}
	}
}

// TestZeroValueNetwork: "the zero value is usable" — with no loss, and
// with loss, where it draws what NewNetwork(0) draws.
func TestZeroValueNetwork(t *testing.T) {
	addr := Addr4(192, 0, 2, 4)
	q := dnswire.NewQuery(1, dnswire.MustParseName("x."), dnswire.TypeA, false)
	var zero Network
	zero.Register(addr, echoHandler{})
	if _, err := zero.Exchange(context.Background(), addr, q); err != nil {
		t.Fatalf("lossless zero-value network: %v", err)
	}
	seeded := NewNetwork(0)
	seeded.Register(addr, echoHandler{})
	zero.LossRate, seeded.LossRate = 0.5, 0.5
	lost := 0
	for i := 0; i < 400; i++ {
		q.Header.ID = uint16(i)
		_, err := zero.Exchange(context.Background(), addr, q)
		_, want := seeded.Exchange(context.Background(), addr, q)
		if (err == nil) != (want == nil) || (err != nil && !errors.Is(err, ErrPacketLost)) {
			t.Fatalf("draw %d: zero value %v, NewNetwork(0) %v", i, err, want)
		}
		if err != nil {
			lost++
		}
	}
	if lost < 120 || lost > 280 {
		t.Fatalf("lost %d/400 at 50 %% loss", lost)
	}
}

func TestNetworkFaultInjectionMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	n := NewNetwork(7)
	n.Instrument(reg)
	n.LossRate = 1.0
	addr := Addr4(192, 0, 2, 9)
	n.Register(addr, echoHandler{})
	q := dnswire.NewQuery(1, dnswire.MustParseName("x."), dnswire.TypeA, false)
	for i := 0; i < 3; i++ {
		if _, err := n.Exchange(context.Background(), addr, q); !errors.Is(err, ErrPacketLost) {
			t.Fatalf("err = %v", err)
		}
	}
	if got := reg.Counter("netsim_packets_lost_total", "").Value(); got != 3 {
		t.Errorf("netsim_packets_lost_total %d, want 3", got)
	}
}

// TestNetworkLatencyAndCancellation: a query under a done context never
// reaches the server, and the context's error comes back.
func TestNetworkLatencyAndCancellation(t *testing.T) {
	n := NewNetwork(1)
	addr := Addr4(192, 0, 2, 4)
	served := false
	n.Register(addr, HandlerFunc(func(ctx context.Context, from netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		served = true
		return nil
	}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := dnswire.NewQuery(1, dnswire.MustParseName("x."), dnswire.TypeA, false)
	if _, err := n.Exchange(ctx, addr, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("Exchange under a done context: %v, want context.Canceled", err)
	}
	if served {
		t.Fatal("a query under a done context reached the server")
	}
}

func TestNetworkTruncationFallsBackToTCPPath(t *testing.T) {
	// A handler returning an oversized answer; the simulated exchange
	// must deliver the full (TCP-path) message, not a truncated one.
	big := strings.Repeat("x", 200)
	h := HandlerFunc(func(ctx context.Context, from netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		resp := &dnswire.Message{
			Header:    dnswire.Header{ID: q.Header.ID, Response: true},
			Questions: q.Questions,
		}
		for i := 0; i < 20; i++ {
			resp.Answers = append(resp.Answers, dnswire.RR{
				Name: q.Question().Name, Class: dnswire.ClassIN, TTL: 1,
				Data: dnswire.TXT{Strings: []string{big}},
			})
		}
		return resp
	})
	n := NewNetwork(1)
	addr := Addr4(192, 0, 2, 5)
	n.Register(addr, h)
	q := dnswire.NewQuery(5, dnswire.MustParseName("big.example"), dnswire.TypeTXT, false)
	// Client advertises a small UDP size.
	opt, _ := q.OPT()
	opt.UDPSize = 512
	resp, err := n.Exchange(context.Background(), addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Truncated {
		t.Fatal("got truncated response after fallback")
	}
	if len(resp.Answers) != 20 {
		t.Fatalf("answers = %d, want 20", len(resp.Answers))
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr4(10, 1, 2, 3)
	if a.Addr().String() != "10.1.2.3" || a.Port() != 53 {
		t.Fatalf("Addr4 = %s", a)
	}
	b := Addr6(0x1234)
	if !b.Addr().Is6() || b.Port() != 53 {
		t.Fatalf("Addr6 = %s", b)
	}
	if Addr6(1) == Addr6(2) {
		t.Fatal("Addr6 not unique")
	}
}

// TestRealUDPServerAndClient exercises the real-socket path on
// loopback: UDP round trip plus TCP fallback on truncation.
func TestRealUDPServerAndClient(t *testing.T) {
	srv := &Server{Handler: echoHandler{txt: "real-socket"}}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &UDPExchanger{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(77, dnswire.MustParseName("udp.example"), dnswire.TypeTXT, true)
	resp, err := client.Exchange(context.Background(), addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data.(dnswire.TXT).Strings[0] != "real-socket" {
		t.Fatalf("resp = %v", resp)
	}
}

// TestUDPExchangerAttempts counts the datagrams a silent server sees:
// one. The transport does not retry — the resolver and the scanner
// above it keep the retry budget — and it gives up with an error,
// never (nil, nil).
func TestUDPExchangerAttempts(t *testing.T) {
	silent, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	client := &UDPExchanger{Timeout: 50 * time.Millisecond}
	q := dnswire.NewQuery(79, dnswire.MustParseName("silent.example"), dnswire.TypeA, false)
	resp, err := client.Exchange(context.Background(), netip.MustParseAddrPort(silent.LocalAddr().String()), q)
	if resp != nil || err == nil {
		t.Errorf("against a silent server: (%v, %v), want an error", resp, err)
	}
	// The datagram has been written by the time Exchange gives up; the
	// read after it times out.
	seen, buf := 0, make([]byte, 512)
	for {
		silent.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if _, _, err := silent.ReadFrom(buf); err != nil {
			break
		}
		seen++
	}
	if seen != 1 {
		t.Errorf("%d datagrams sent, want 1", seen)
	}
}

func TestRealUDPTruncationTCPFallback(t *testing.T) {
	big := strings.Repeat("y", 200)
	h := HandlerFunc(func(ctx context.Context, from netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		resp := &dnswire.Message{
			Header:    dnswire.Header{ID: q.Header.ID, Response: true},
			Questions: q.Questions,
		}
		for i := 0; i < 30; i++ {
			resp.Answers = append(resp.Answers, dnswire.RR{
				Name: q.Question().Name, Class: dnswire.ClassIN, TTL: 1,
				Data: dnswire.TXT{Strings: []string{big}},
			})
		}
		return resp
	})
	// 30 × 200 octets of TXT: past dnswire.DefaultUDPSize, the
	// server's datagram ceiling.
	srv := &Server{Handler: h}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &UDPExchanger{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(78, dnswire.MustParseName("big.example"), dnswire.TypeTXT, false)
	resp, err := client.Exchange(context.Background(), addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Truncated {
		t.Fatal("client did not fall back to TCP")
	}
	if len(resp.Answers) != 30 {
		t.Fatalf("answers = %d, want 30", len(resp.Answers))
	}
}

func TestRealServerRejectsDoubleListen(t *testing.T) {
	srv := &Server{Handler: echoHandler{}}
	_, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Listen(context.Background(), "127.0.0.1:0"); err == nil {
		t.Fatal("double listen accepted")
	}
}

func TestRealServerIgnoresGarbage(t *testing.T) {
	srv := &Server{Handler: echoHandler{txt: "ok"}}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Send garbage first; the server must survive and keep answering.
	conn, err := netDialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write([]byte{0xde, 0xad})
	conn.Close()
	client := &UDPExchanger{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(79, dnswire.MustParseName("ok.example"), dnswire.TypeTXT, false)
	if _, err := client.Exchange(context.Background(), addr, q); err != nil {
		t.Fatal(err)
	}
}

// netDialUDP dials a UDP socket to addr (test helper).
func netDialUDP(addr netip.AddrPort) (net.Conn, error) {
	return net.Dial("udp", addr.String())
}

// sendRawQuery fires one query datagram at addr without waiting for a
// response (test helper for in-flight-handler tests).
func sendRawQuery(t *testing.T, addr netip.AddrPort, id uint16) {
	t.Helper()
	conn, err := netDialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := dnswire.NewQuery(id, dnswire.MustParseName("block.example"), dnswire.TypeTXT, false)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
}

// blockingHandler parks in the handler until its context is cancelled,
// reporting the observed error.
func blockingHandler(entered chan<- struct{}, done chan<- error) HandlerFunc {
	return func(ctx context.Context, from netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			done <- ctx.Err()
		case <-time.After(5 * time.Second):
			done <- errors.New("handler context was never cancelled")
		}
		return nil
	}
}

// TestRealServerCloseCancelsHandlerCtx pins the shutdown contract:
// Close cancels the context every handler invocation runs under, so an
// in-flight handler blocked on ctx.Done() unblocks instead of pinning
// Close's WaitGroup for its full deadline.
func TestRealServerCloseCancelsHandlerCtx(t *testing.T) {
	entered := make(chan struct{}, 1)
	done := make(chan error, 1)
	srv := &Server{Handler: blockingHandler(entered, done)}
	addr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sendRawQuery(t, addr, 80)
	<-entered
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("handler observed %v, want context.Canceled", err)
	}
}

// TestRealServerParentCtxReachesHandlers pins the other half of the
// Listen contract: cancelling the caller's context — without Close —
// also reaches in-flight handlers, because every invocation derives
// from it.
func TestRealServerParentCtxReachesHandlers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{}, 1)
	done := make(chan error, 1)
	srv := &Server{Handler: blockingHandler(entered, done)}
	addr, err := srv.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sendRawQuery(t, addr, 81)
	<-entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("handler observed %v, want context.Canceled", err)
	}
}

// TestUDPSizeClampSimMatchesReal pins that a client's advertised EDNS
// payload size means the same on the simulated network as on real
// sockets: anything under 512 is treated as 512 (RFC 6891 §6.2.3), so
// an answer of ~900 octets to a question of ~140 is truncated and
// re-fetched over TCP for every size below 1232 and sent directly at
// 1232 — and never, as the simulation once did, sent unlimited at 0 or
// refused at 100 because the question alone does not fit.
func TestUDPSizeClampSimMatchesReal(t *testing.T) {
	var calls atomic.Int32
	h := HandlerFunc(func(ctx context.Context, from netip.AddrPort, q *dnswire.Message) *dnswire.Message {
		calls.Add(1)
		resp := &dnswire.Message{
			Header:    dnswire.Header{ID: q.Header.ID, Response: true},
			Questions: q.Questions,
		}
		for i := 0; i < 7; i++ {
			resp.Answers = append(resp.Answers, dnswire.RR{
				Name: q.Question().Name, Class: dnswire.ClassIN, TTL: 1,
				Data: dnswire.TXT{Strings: []string{strings.Repeat("z", 100)}},
			})
		}
		if o, ok := q.OPT(); ok {
			resp.Additional = append(resp.Additional, (&dnswire.OPT{UDPSize: dnswire.DefaultUDPSize, DO: o.DO}).AsRR())
		}
		return resp
	})
	sim := NewNetwork(1)
	simAddr := Addr4(192, 0, 2, 9)
	sim.Register(simAddr, h)
	srv := &Server{Handler: h}
	realAddr, err := srv.Listen(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &UDPExchanger{Timeout: 2 * time.Second}

	// Four 30-octet labels: the question alone is over 100 octets.
	label := strings.Repeat("q", 30)
	qname := dnswire.MustParseName(strings.Join([]string{label, label, label, label, "example"}, "."))
	full, err := h.Handle(context.Background(), simAddr, dnswire.NewQuery(1, qname, dnswire.TypeTXT, true)).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= 512 || len(full) > dnswire.DefaultUDPSize {
		t.Fatalf("the answer is %d octets; the table below needs one over 512 that fits 1232", len(full))
	}
	for _, tc := range []struct {
		udpSize uint16
		viaTCP  bool
	}{{0, true}, {100, true}, {511, true}, {512, true}, {1232, false}} {
		query := func() *dnswire.Message {
			q := dnswire.NewQuery(uint16(1000+tc.udpSize), qname, dnswire.TypeTXT, true)
			opt, _ := q.OPT()
			opt.UDPSize = tc.udpSize
			q.Additional[0] = opt.AsRR()
			return q
		}
		calls.Store(0)
		real, err := client.Exchange(context.Background(), realAddr, query())
		if err != nil {
			t.Fatalf("UDPSize %d over real sockets: %v", tc.udpSize, err)
		}
		// The real client asks again over TCP when the UDP answer came
		// back truncated, so the handler ran twice.
		if viaTCP := calls.Load() == 2; viaTCP != tc.viaTCP {
			t.Errorf("UDPSize %d over real sockets: %d handler calls, want TCP retry = %v", tc.udpSize, calls.Load(), tc.viaTCP)
		}
		calls.Store(0)
		simResp, err := sim.Exchange(context.Background(), simAddr, query())
		if err != nil {
			t.Fatalf("UDPSize %d over the simulated network: %v", tc.udpSize, err)
		}
		// The simulation never shows its caller a truncated datagram, so
		// it asks for the stream rendering at once: one handler call.
		if got := calls.Load(); got != 1 {
			t.Errorf("UDPSize %d over the simulated network: %d handler calls, want 1", tc.udpSize, got)
		}
		for _, r := range []*dnswire.Message{real, simResp} {
			if r.Header.Truncated || len(r.Answers) != 7 || len(r.Additional) != 1 {
				t.Errorf("UDPSize %d: final response TC=%v with %d answers, %d additional; want the full 7 + 1",
					tc.udpSize, r.Header.Truncated, len(r.Answers), len(r.Additional))
			}
		}
	}
}
