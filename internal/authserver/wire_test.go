package authserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/obs"
	"repro/internal/zone"
)

// These tests hold the answer memo to its one promise: whatever it has
// stored, ServeWire returns the octets Handle + PackBuffer would render
// for the query at that moment.

var wireFrom = netip.MustParseAddrPort("10.0.0.1:5353")

// wireQuery is the octets of a query for (name, qt) under id.
func wireQuery(t testing.TB, id uint16, name string, qt dnswire.Type, do bool) []byte {
	t.Helper()
	wire, err := dnswire.NewQuery(id, dnswire.MustParseName(name), qt, do).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// fresh is the reference rendering: the query decoded, Handle's
// response rendered for maxSize.
func fresh(t testing.TB, s *Server, query []byte, maxSize int) []byte {
	t.Helper()
	q, err := dnswire.Unpack(query)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := s.Handle(context.Background(), wireFrom, q).PackBuffer(nil, maxSize, true)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// rcodeOf reads the RCODE of a rendered response.
func rcodeOf(t testing.TB, wire []byte) dnswire.RCode {
	t.Helper()
	m, err := dnswire.Unpack(wire)
	if err != nil {
		t.Fatalf("response does not decode: %v", err)
	}
	return m.Header.RCode
}

// ask sends the question n times under n IDs and requires the fresh
// rendering each time; it returns the last response.
func ask(t testing.TB, s *Server, n int, name string, qt dnswire.Type, do bool, maxSize int) []byte {
	t.Helper()
	var got []byte
	for i := 0; i < n; i++ {
		query := wireQuery(t, uint16(0x4000+i), name, qt, do)
		got = s.ServeWire(context.Background(), nil, wireFrom, query, maxSize)
		if want := fresh(t, s, query, maxSize); !bytes.Equal(got, want) {
			t.Fatalf("%s %s ask %d: ServeWire\n %x\nHandle + PackBuffer\n %x", name, qt, i, got, want)
		}
	}
	return got
}

func memoSize(s *Server) (answers, seen int) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return len(s.memo.answers), len(s.memo.seen)
}

func TestServeWireAdmitsOnSecondSight(t *testing.T) {
	s := New()
	reg := obs.NewRegistry()
	s.Instrument(reg)
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }
	for i, want := range []struct{ answers, seen int }{{0, 1}, {1, 1}, {1, 1}, {1, 1}} {
		ask(t, s, 1, "www.example.com", dnswire.TypeA, true, 0)
		if a, sn := memoSize(s); a != want.answers || sn != want.seen {
			t.Fatalf("after ask %d: %d stored, %d seen once; want %d, %d", i+1, a, sn, want.answers, want.seen)
		}
	}
	if hits, admitted := counter("authserver_answer_memo_hits_total"), counter("authserver_answer_memo_admitted_total"); hits != 2 || admitted != 1 {
		t.Errorf("%d hits, %d admitted; want 2, 1", hits, admitted)
	}
	// ask renders its reference through Handle too: 4 + 4.
	if got := counter("authserver_queries_total"); got != 8 {
		t.Errorf("authserver_queries_total %d, want 8", got)
	}
	// The response is appended: what dst held stays in front of it.
	query := wireQuery(t, 9, "www.example.com", dnswire.TypeA, true)
	got := s.ServeWire(context.Background(), []byte("front"), wireFrom, query, 0)
	if want := append([]byte("front"), fresh(t, s, query, 0)...); !bytes.Equal(got, want) {
		t.Errorf("appended to dst: got %x, want %x", got, want)
	}
}

func TestServeWireRespectsDatagramSize(t *testing.T) {
	s := New()
	z := rawZone("example.com")
	for i := 0; i < 4; i++ {
		z.MustAdd(dnswire.RR{Name: dnswire.MustParseName("fat.example.com"), Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.TXT{Strings: []string{string(bytes.Repeat([]byte{'a' + byte(i)}, 200))}}})
	}
	sz, err := z.Sign(zone.SignConfig{Denial: zone.DenialNSEC, Inception: tInception, Expiration: tExpiration})
	if err != nil {
		t.Fatal(err)
	}
	s.AddZone(sz)
	// Stored from a stream, ~900 octets: served whole to a 1232-octet
	// datagram, never to a 512-octet one.
	full := ask(t, s, 3, "fat.example.com", dnswire.TypeTXT, false, 0)
	if a, _ := memoSize(s); a != 1 || len(full) <= 512 {
		t.Fatalf("%d stored, answer %d octets; want 1 stored, over 512", a, len(full))
	}
	ask(t, s, 1, "fat.example.com", dnswire.TypeTXT, false, 1232)
	small := ask(t, s, 3, "fat.example.com", dnswire.TypeTXT, false, 512)
	if m, err := dnswire.Unpack(small); err != nil || !m.Header.Truncated || len(small) > 512 {
		t.Fatalf("512-octet datagram got %d octets, TC=%v (%v)", len(small), m.Header.Truncated, err)
	}
	// The truncated rendering was not kept in the full one's place.
	if got := ask(t, s, 1, "fat.example.com", dnswire.TypeTXT, false, 0); !bytes.Equal(got[2:], full[2:]) {
		t.Error("the stream rendering changed after a truncated one was served")
	}
}

func TestServeWireInvalidation(t *testing.T) {
	apex := dnswire.MustParseName("example.com")
	t.Run("AddZone replacing an apex", func(t *testing.T) {
		s := New()
		s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
		ask(t, s, 3, "mail.example.com", dnswire.TypeA, true, 0)
		z := rawZone("example.com")
		z.MustAdd(dnswire.RR{Name: apex.MustChild("mail"), Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.25")}})
		sz, err := z.Sign(zone.SignConfig{Denial: zone.DenialNSEC3, Inception: tInception, Expiration: tExpiration})
		if err != nil {
			t.Fatal(err)
		}
		s.AddZone(sz)
		if rc := rcodeOf(t, ask(t, s, 3, "mail.example.com", dnswire.TypeA, true, 0)); rc != dnswire.RCodeNoError {
			t.Fatalf("after the zone gained the name: %s", rc)
		}
	})
	t.Run("AddLazyZone", func(t *testing.T) {
		s := New()
		if rc := rcodeOf(t, ask(t, s, 3, "www.example.com", dnswire.TypeA, true, 0)); rc != dnswire.RCodeRefused {
			t.Fatalf("nothing hosted: %s", rc)
		}
		s.AddLazyZone(apex, func() (*zone.Signed, error) { return signTestZone("example.com") })
		if rc := rcodeOf(t, ask(t, s, 3, "www.example.com", dnswire.TypeA, true, 0)); rc != dnswire.RCodeNoError {
			t.Fatalf("after AddLazyZone: %s", rc)
		}
	})
	t.Run("SetTransferPolicy", func(t *testing.T) {
		// A zone of an SOA and an NS: its whole transfer fits a datagram.
		tiny := dnswire.MustParseName("tiny.example")
		z := zone.New(tiny, 300)
		z.MustAdd(dnswire.RR{Name: tiny, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.SOA{
			MName: tiny, RName: tiny, Serial: 1, Refresh: 1, Retry: 1, Expire: 1, Minimum: 300}})
		z.MustAdd(dnswire.RR{Name: tiny, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.NS{Host: dnswire.MustParseName("ns.elsewhere.test")}})
		sz, err := z.Sign(zone.SignConfig{Denial: zone.DenialNSEC, Inception: tInception, Expiration: tExpiration})
		if err != nil {
			t.Fatal(err)
		}
		s := New()
		reg := obs.NewRegistry()
		s.Instrument(reg)
		s.AddZone(sz)
		if rc := rcodeOf(t, ask(t, s, 3, "tiny.example", dnswire.TypeAXFR, false, 0)); rc != dnswire.RCodeRefused {
			t.Fatalf("transfer by default: %s", rc)
		}
		if a, _ := memoSize(s); a != 1 {
			t.Fatalf("%d stored after three refusals, want 1", a)
		}
		s.SetTransferPolicy(tiny, zone.TransferOpen)
		if got := reg.Counter("authserver_answer_memo_flushes_total", "").Value(); got != 1 {
			t.Errorf("authserver_answer_memo_flushes_total %d, want 1", got)
		}
		xfr := ask(t, s, 3, "tiny.example", dnswire.TypeAXFR, false, 0)
		if m, err := dnswire.Unpack(xfr); err != nil || m.Header.RCode != dnswire.RCodeNoError || len(m.Answers) < 4 {
			t.Fatalf("after opening transfers: %v (%v)", m, err)
		}
	})
}

// A transfer of any zone with more than an apex is over a datagram, and
// nothing over a datagram is stored.
func TestServeWireNeverStoresTransfers(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	s.SetTransferPolicy(dnswire.MustParseName("example.com"), zone.TransferOpen)
	xfr := ask(t, s, 4, "example.com", dnswire.TypeAXFR, false, 0)
	if a, _ := memoSize(s); a != 0 || len(xfr) <= dnswire.DefaultUDPSize {
		t.Errorf("%d stored after four %d-octet transfers, want 0", a, len(xfr))
	}
}

// A response rendered from the old zone table must not be admitted
// after the table changed, however the two interleave.
func TestServeWireOfferAfterInvalidationIsRefused(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	query := wireQuery(t, 1, "www.example.com", dnswire.TypeA, true)
	stale := fresh(t, s, query, 0)
	s.memo.mu.Lock()
	epoch := s.memo.epoch
	s.memo.mu.Unlock()
	h := maphash.Bytes(memoSeed, query[2:])
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC))
	s.admit(epoch, h, query[2:], stale[2:])
	if a, _ := memoSize(s); a != 0 {
		t.Fatalf("%d stored from before the zone changed", a)
	}
	ask(t, s, 3, "www.example.com", dnswire.TypeA, true, 0)
}

func TestServeWireNeverStoresServFail(t *testing.T) {
	t.Run("cancelled waiter", func(t *testing.T) {
		s := New()
		signing, release := make(chan struct{}), make(chan struct{})
		s.AddLazyZone(dnswire.MustParseName("slow.example"), func() (*zone.Signed, error) {
			close(signing)
			<-release
			return signTestZone("slow.example")
		})
		signerDone := make(chan []byte, 1)
		go func() {
			signerDone <- s.ServeWire(context.Background(), nil, wireFrom, wireQuery(t, 1, "www.slow.example", dnswire.TypeA, true), 0)
		}()
		<-signing
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for i := 0; i < 3; i++ {
			got := s.ServeWire(ctx, nil, wireFrom, wireQuery(t, uint16(2+i), "www.slow.example", dnswire.TypeA, true), 0)
			if rc := rcodeOf(t, got); rc != dnswire.RCodeServFail {
				t.Fatalf("cancelled waiter %d: %s", i, rc)
			}
		}
		close(release)
		if rc := rcodeOf(t, <-signerDone); rc != dnswire.RCodeNoError {
			t.Fatalf("the signer's own query: %s", rc)
		}
		if rc := rcodeOf(t, ask(t, s, 3, "www.slow.example", dnswire.TypeA, true, 0)); rc != dnswire.RCodeNoError {
			t.Fatalf("after signing finished: %s", rc)
		}
	})
	t.Run("failed signer", func(t *testing.T) {
		s := New()
		s.AddLazyZone(dnswire.MustParseName("broken.example"), func() (*zone.Signed, error) {
			return nil, errors.New("keys unavailable")
		})
		if rc := rcodeOf(t, ask(t, s, 4, "www.broken.example", dnswire.TypeA, true, 0)); rc != dnswire.RCodeServFail {
			t.Fatalf("rcode %s, want SERVFAIL", rc)
		}
		if a, _ := memoSize(s); a != 0 {
			t.Errorf("%d stored; SERVFAIL is never admitted", a)
		}
	})
}

func TestServeWireDropsGarbage(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	response := wireQuery(t, 1, "www.example.com", dnswire.TypeA, true)
	response[2] |= 0x80 // QR
	for name, query := range map[string][]byte{
		"empty":            nil,
		"one octet":        {0},
		"half a header":    {0, 1, 0, 0, 0, 1},
		"no question":      {0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"QR set":           response,
		"trailing garbage": append(wireQuery(t, 1, "www.example.com", dnswire.TypeA, true), 0),
	} {
		for i := 0; i < 3; i++ {
			if got := s.ServeWire(context.Background(), nil, wireFrom, query, 0); got != nil {
				t.Errorf("%s: answered %x", name, got)
			}
		}
	}
	if a, _ := memoSize(s); a != 0 {
		t.Errorf("%d stored after garbage alone", a)
	}
}

func TestServeWireBounded(t *testing.T) {
	s := New()
	reg := obs.NewRegistry()
	s.Instrument(reg)
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	for i := 0; i < memoLimit+10; i++ {
		ask(t, s, 2, fmt.Sprintf("n%d.example.com", i), dnswire.TypeA, true, 0)
		if a, sn := memoSize(s); a > memoLimit || sn > memoLimit {
			t.Fatalf("%d stored, %d seen once; the bound is %d", a, sn, memoLimit)
		}
	}
	if a, _ := memoSize(s); a == 0 {
		t.Error("nothing stored after every name was asked twice running")
	}
	if got := reg.Counter("authserver_answer_memo_flushes_total", "").Value(); got == 0 {
		t.Error("a full table was never flushed")
	}
}

func TestServeWireConcurrent(t *testing.T) {
	s := New()
	s.Log = NewQueryLog(64)
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	names := []string{"www.example.com", "ns.example.com", "example.com", "gone.example.com", "deep.gone.example.com", "elsewhere.test"}
	want := map[string][]byte{}
	for _, n := range names {
		want[n] = fresh(t, s, wireQuery(t, 0, n, dnswire.TypeA, true), 0)[2:]
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 200; i++ {
				n := names[(g+i)%len(names)]
				id := uint16(g<<8 | i)
				buf = s.ServeWire(context.Background(), buf[:0], wireFrom, wireQuery(t, id, n, dnswire.TypeA, true), 0)
				if len(buf) < 2 || buf[0] != byte(id>>8) || buf[1] != byte(id) || !bytes.Equal(buf[2:], want[n]) {
					t.Errorf("goroutine %d, %s: wrong octets", g, n)
					return
				}
				if i == 100 && g == 0 {
					s.SetTransferPolicy(dnswire.MustParseName("example.com"), zone.TransferOpen)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestServeWireHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race")
	}
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	query := wireQuery(t, 7, "gone.example.com", dnswire.TypeA, true)
	ask(t, s, 3, "gone.example.com", dnswire.TypeA, true, 0)
	dst := make([]byte, 0, 2048)
	ctx := context.Background()
	hit := func() {
		if out := s.ServeWire(ctx, dst, wireFrom, query, 0); len(out) < 12 {
			t.Fatal("no response")
		}
	}
	if got := testing.AllocsPerRun(200, hit); got != 0 {
		t.Errorf("a hit allocates %.0f times, want 0", got)
	}
	s.Log = NewQueryLog(16)
	if got := testing.AllocsPerRun(200, hit); got > 1 {
		t.Errorf("a logged hit allocates %.0f times, want at most the logged name", got)
	}
}

// A source all of whose queries were answered from the memo is in the
// log like any other.
func TestQueryLogSeesMemoHits(t *testing.T) {
	s := New()
	s.Log = NewQueryLog(0)
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	ask(t, s, 3, "probe-1.example.com", dnswire.TypeA, true, 0)
	late := netip.MustParseAddrPort("198.51.100.7:4242")
	query := wireQuery(t, 99, "probe-1.example.com", dnswire.TypeA, true)
	before, _ := memoSize(s)
	if got := s.ServeWire(context.Background(), nil, late, query, 0); got == nil {
		t.Fatal("no response")
	}
	if after, _ := memoSize(s); before != 1 || after != 1 {
		t.Fatalf("the late query was not a hit (%d, %d stored)", before, after)
	}
	srcs := s.Log.SourcesFor(func(n dnswire.Name) bool { return n == dnswire.MustParseName("probe-1.example.com") })
	found := false
	for _, src := range srcs {
		found = found || src == late
	}
	if !found {
		t.Errorf("sources %v lack %s, whose only query was a memo hit", srcs, late)
	}
}

// TestServedAnswersOutliveTheirQuery scribbles, by serving, over whatever
// the server reuses between queries: the Message Handle returned, the
// octets ServeWire appended and the rendering the memo admitted must read
// the same after 1,000 further queries of other shapes on 8 goroutines as
// when they were handed out (the -race leg is where a shared buffer
// shows first).
func TestServedAnswersOutliveTheirQuery(t *testing.T) {
	s := New()
	s.Log = NewQueryLog(64)
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	s.SetTransferPolicy(dnswire.MustParseName("example.com"), zone.TransferOpen)
	ctx := context.Background()
	pack := func(m *dnswire.Message) []byte {
		t.Helper()
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}

	held := s.Handle(ctx, wireFrom, dnswire.NewQuery(1, dnswire.MustParseName("gone.example.com"), dnswire.TypeA, true))
	heldWire := pack(held)
	query := wireQuery(t, 2, "www.example.com", dnswire.TypeA, true)
	octets := s.ServeWire(ctx, nil, wireFrom, query, 0)
	octetsWant := bytes.Clone(octets)
	s.ServeWire(ctx, nil, wireFrom, query, 0) // second sight: admitted
	s.memo.mu.Lock()
	admitted := s.memo.answers[maphash.Bytes(memoSeed, query[2:])]
	s.memo.mu.Unlock()
	if admitted.response == nil {
		t.Fatal("the second sight of a query was not admitted")
	}
	admittedWant := memoEntry{query: bytes.Clone(admitted.query), response: bytes.Clone(admitted.response)}

	// Other shapes: every answer kind, with and without EDNS and DO, a
	// transfer, a refusal, an opcode and a class the server does not
	// implement — each under names the three above never used.
	shapes := []func(i int) *dnswire.Message{
		func(i int) *dnswire.Message {
			return dnswire.NewQuery(uint16(i), dnswire.MustParseName(fmt.Sprintf("a.b.n%d.example.com", i)), dnswire.TypeTXT, true)
		},
		func(i int) *dnswire.Message {
			return dnswire.NewQuery(uint16(i), dnswire.MustParseName("ns.example.com"), dnswire.Type(256+i), true)
		},
		func(i int) *dnswire.Message {
			return dnswire.NewQuery(uint16(i), dnswire.MustParseName("example.com"), dnswire.TypeDNSKEY, i%2 == 0)
		},
		func(i int) *dnswire.Message {
			return dnswire.NewQuery(uint16(i), dnswire.MustParseName("example.com"), dnswire.TypeAXFR, false)
		},
		func(i int) *dnswire.Message {
			return dnswire.NewQuery(uint16(i), dnswire.MustParseName(fmt.Sprintf("n%d.elsewhere.test", i)), dnswire.TypeA, true)
		},
		func(i int) *dnswire.Message {
			q := dnswire.NewQuery(uint16(i), dnswire.MustParseName(fmt.Sprintf("n%d.example.com", i)), dnswire.TypeA, false)
			q.Additional = nil // no EDNS
			return q
		},
		func(i int) *dnswire.Message {
			q := dnswire.NewQuery(uint16(i), dnswire.MustParseName("www.example.com"), dnswire.TypeA, true)
			q.Header.Opcode = dnswire.Opcode(4 + i%2)
			return q
		},
		func(i int) *dnswire.Message {
			q := dnswire.NewQuery(uint16(i), dnswire.MustParseName("www.example.com"), dnswire.TypeA, true)
			q.Questions[0].Class = dnswire.Class(3)
			return q
		},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 125; i++ {
				q := shapes[(g+i)%len(shapes)](g<<8 | i)
				if i%2 == 0 {
					if resp := s.Handle(ctx, wireFrom, q); resp == nil {
						t.Errorf("goroutine %d query %d: no response", g, i)
						return
					}
					continue
				}
				wire, err := q.Pack()
				if err != nil {
					t.Error(err)
					return
				}
				if buf = s.ServeWire(ctx, buf[:0], wireFrom, wire, 0); len(buf) < 12 {
					t.Errorf("goroutine %d query %d: no response", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if got := pack(held); !bytes.Equal(got, heldWire) {
		t.Errorf("the Message Handle returned changed under later queries:\n %x\nwas\n %x", got, heldWire)
	}
	if !bytes.Equal(octets, octetsWant) {
		t.Errorf("the octets ServeWire returned changed under later queries:\n %x\nwas\n %x", octets, octetsWant)
	}
	if !bytes.Equal(admitted.query, admittedWant.query) || !bytes.Equal(admitted.response, admittedWant.response) {
		t.Error("what the memo admitted changed under later queries")
	}
	if got := s.ServeWire(ctx, nil, wireFrom, query, 0); !bytes.Equal(got, octetsWant) {
		t.Errorf("the memo hit after them:\n %x\nwant\n %x", got, octetsWant)
	}
}

// A transfer's Answers are the whole zone: the scratch that shaped it
// goes back to the pool without them, and shapes a small answer next.
func TestTransferLeavesNoRecordsInTheScratch(t *testing.T) {
	s := New()
	s.AddZone(buildZone(t, "example.com", zone.DenialNSEC3))
	s.SetTransferPolicy(dnswire.MustParseName("example.com"), zone.TransferOpen)
	query := wireQuery(t, 1, "example.com", dnswire.TypeAXFR, false)
	xfr, err := dnswire.Unpack(s.ServeWire(context.Background(), nil, wireFrom, query, 0))
	if err != nil || len(xfr.Answers) < 10 {
		t.Fatalf("transfer: %v (%v)", xfr, err)
	}
	// The pool hands back what was just put (under -race it may drop it
	// and make a new one, which holds nothing either way).
	sc := scratchPool.Get().(*scratch)
	if sc.msg.Answers != nil || sc.msg.Questions != nil || cap(sc.ans.Answer) >= len(xfr.Answers) {
		t.Errorf("the pooled scratch still holds a response: %d answers, %d questions, answer section capacity %d",
			len(sc.msg.Answers), len(sc.msg.Questions), cap(sc.ans.Answer))
	}
	scratchPool.Put(sc)
	small := ask(t, s, 1, "www.example.com", dnswire.TypeA, true, 0)
	if m, err := dnswire.Unpack(small); err != nil || len(m.Answers) != 2 {
		t.Errorf("the query after the transfer: %v (%v)", m, err)
	}
}
