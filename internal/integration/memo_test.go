package integration

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestAnswerMemoTransparent asks every corpus question, every way,
// three times under three IDs — a miss, the sight that admits it, a
// hit — for a stream and for the datagram the query may be sent, and
// requires each time the octets a fresh Handle + PackBuffer renders.
// The 512-octet asks follow the 1232- and stream-sized asks for the
// same name on the same server, so a stored rendering too large for
// them is there to be wrongly served.
func TestAnswerMemoTransparent(t *testing.T) {
	ctx := context.Background()
	from := netsim.Addr4(10, 0, 0, 1)
	id := uint16(0)
	reg := obs.NewRegistry()
	for zi, as := range corpusServers(t) {
		as.Instrument(reg)
		for _, qn := range corpusQNames {
			for _, qt := range corpusQTypes {
				for vi := len(ednsVariants) - 1; vi >= 0; vi-- {
					v := ednsVariants[vi]
					for _, maxSize := range []int{0, datagramBudget(v.query(0, dnswire.Root, qt))} {
						for ask := 0; ask < 3; ask++ {
							id++
							query, err := v.query(id, dnswire.MustParseName(qn), qt).Pack()
							if err != nil {
								t.Fatal(err)
							}
							got := as.ServeWire(ctx, nil, from, query, maxSize)
							q, err := dnswire.Unpack(query)
							if err != nil {
								t.Fatal(err)
							}
							want, err := as.Handle(ctx, from, q).PackBuffer(nil, maxSize, true)
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(got, want) {
								t.Fatalf("zone %d, %s %s %+v for %d octets, ask %d:\n ServeWire          %x\n Handle + PackBuffer %x",
									zi, qn, qt, v, maxSize, ask+1, got, want)
							}
						}
					}
				}
			}
		}
	}
	// Of each six asks of one query the last four are hits, unless the
	// rendering is over a datagram and so never stored.
	hits, asked := reg.Counter("authserver_answer_memo_hits_total", "").Value(), uint64(id)
	if hits < asked/2 || hits > asked*2/3 {
		t.Errorf("%d of %d asks were memo hits; want most of two thirds", hits, asked)
	}
}

// TestAnswerMemoHotCounts is the authd_hot loop in small: one client
// cycling 64 fixed questions through Network.Exchange. Each question
// misses twice, is admitted on the second miss and hits ever after, so
// the counts repeat exactly: hits = queries − 128, admissions = 64.
func TestAnswerMemoHotCounts(t *testing.T) {
	as := corpusServers(t)[1]
	reg := obs.NewRegistry()
	as.Instrument(reg)
	net, addr := netsim.NewNetwork(1), netsim.Addr4(192, 0, 2, 53)
	net.Register(addr, as)
	const hot, rounds = 64, 10
	id := uint16(0)
	for r := 0; r < rounds; r++ {
		for i := 0; i < hot; i++ {
			id++
			// Half existing names (under the zone's wildcard), half missing.
			parent := "wild.example.com"
			if i%2 == 1 {
				parent = "example.com"
			}
			q := dnswire.NewQuery(id, dnswire.MustParseName(fmt.Sprintf("h%02d.%s", i/2, parent)), dnswire.TypeA, true)
			if _, err := net.Exchange(context.Background(), addr, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, want := range map[string]uint64{
		"authserver_queries_total":              hot * rounds,
		"authserver_answer_memo_hits_total":     hot*rounds - 2*hot,
		"authserver_answer_memo_admitted_total": hot,
		"authserver_answer_memo_flushes_total":  0,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s %d, want %d", name, got, want)
		}
	}
}
